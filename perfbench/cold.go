package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/serve"
)

// serve-cold shape. The timed phase runs in coldRounds rounds, each on
// a freshly started daemon: an open loop at coldLatencyRate for
// --seconds/coldRounds, where latency is measured, then coldClients
// closed-loop clients completing coldCapacityQueries/coldRounds
// queries, where capacity is measured. Eight outstanding queries make
// one batch, whose sweep and certificates take about 60 ms, well within
// the daemon's 200 ms deadline. A fixed count, not a fixed time, leaves
// the result cache and the heap in the same state whatever the rate.
//
// Rounds steady the figures. A host slowdown of a few seconds moves
// one round's figures, not the median over rounds that is reported, and
// latency and capacity are measured throughout the run instead of one
// after the other. A fresh daemon per round starts every round with an
// empty cache and the same heap: on one daemon the cached trees grew
// the heap to 800 MB by the end of the run.
//
// The open-loop rate ladder of coldLadder is the overload probe of the
// traced run. Its highest passing rate is no end-to-end metric: on this
// code the knee lies between 120 and 200 q/s, so which rung passes
// flips from run to run, and its failing step fails queries by design.
const (
	coldRounds          = 10
	coldLatencyRate     = 50
	coldClients         = 8
	coldCapacityQueries = 1500
)

var coldLadder = []float64{100, 200, 400}

// Step limits: a ladder step passes when its tail latency stays within
// half the daemon's 200 ms deadline, at most 1% of its queries fail,
// and latency does not climb through the step.
const (
	stepTailLimit  = 100 * time.Millisecond
	stepErrorLimit = 0.01
)

// coldSpotChecks is how many answered queries of each phase are
// checked against a reference BFS computed by the benchmark, drawn
// evenly through the phase. Each phase has its own quota: the capacity
// phase's multi-lane batches must be checked as well as the latency
// step's mostly one-lane ones. The rounds' latency steps count as one
// phase, as do their capacity phases; each round takes its share with
// the phase's stride, rounded up, so 3 of a round's 100 latency and
// 150 capacity queries are checked, 30 of each phase in all.
const coldSpotChecks = 24

// coldStep is one ladder step's outcome.
type coldStep struct {
	Rate       float64     `json:"rate_qps"`
	Sent       int         `json:"sent"`
	OK         int         `json:"ok"`
	Statuses   map[int]int `json:"statuses"`
	P50ms      float64     `json:"p50_ms"`
	TailMs     float64     `json:"tail_ms"`
	TailPct    float64     `json:"tail_pct"`
	ErrorRatio float64     `json:"error_ratio"`
	Backlog    bool        `json:"growing_backlog"`
	OKRate     float64     `json:"ok_rate_qps"`
	Late       lateness    `json:"lateness"`
	Pass       bool        `json:"pass"`
	Overloads  int64       `json:"overloads"`
	Deadlines  int64       `json:"deadlines"`
}

// coldDetail is what a serve-cold result file records beyond its
// figures: each round's figures and, in a traced run, the ladder steps.
type coldDetail struct {
	Rounds []coldRoundResult `json:"rounds"`
	Ladder []*coldStep       `json:"ladder,omitempty"`
}

type coldRoundResult struct {
	SetupS      float64 `json:"setup_s"`
	P50ms       float64 `json:"p50_ms"`
	CapacityQPS float64 `json:"capacity_qps"`
	PeakHeapMB  float64 `json:"peak_heap_mb"`
}

// coldPlan is every query of a run, fixed from the seed before it.
type coldPlan struct {
	rounds []coldRound
	ladder [][]openSend
	// ladderPairs holds each ladder query's source and target.
	ladderPairs [][][2]graph.VertexID
}

// coldRound is one round's queries, with each query's source and
// target.
type coldRound struct {
	latency  []openSend
	capacity [][]byte
	latPairs [][2]graph.VertexID
	capPairs [][2]graph.VertexID
}

func coldSchedule(seed int64, n int, dur time.Duration) *coldPlan {
	rng := rand.New(rand.NewSource(seed))
	p := &coldPlan{}
	query := func() ([]byte, [2]graph.VertexID) {
		src, dst := graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n))
		return bfsBody(nil, src, dst), [2]graph.VertexID{src, dst}
	}
	openStep := func(rate float64, d time.Duration) ([]openSend, [][2]graph.VertexID) {
		ss := make([]openSend, int(rate*d.Seconds()))
		ps := make([][2]graph.VertexID, len(ss))
		for j := range ss {
			ss[j] = openSend{due: time.Duration(float64(j) / rate * float64(time.Second)), path: "/query/bfs"}
			ss[j].body, ps[j] = query()
		}
		return ss, ps
	}
	for r := 0; r < coldRounds; r++ {
		var rd coldRound
		rd.latency, rd.latPairs = openStep(coldLatencyRate, dur/coldRounds)
		rd.capacity = make([][]byte, coldCapacityQueries/coldRounds)
		rd.capPairs = make([][2]graph.VertexID, len(rd.capacity))
		for j := range rd.capacity {
			rd.capacity[j], rd.capPairs[j] = query()
		}
		p.rounds = append(p.rounds, rd)
	}
	for _, rate := range coldLadder {
		ss, ps := openStep(rate, dur/4)
		p.ladder = append(p.ladder, ss)
		p.ladderPairs = append(p.ladderPairs, ps)
	}
	return p
}

// coldChecker checks answers and keeps a sample for the reference check.
type coldChecker struct {
	o          *outcome
	checks     [][3]int64 // src, dst, answered dist
	ok, cached int
}

// spotStride is the stride that draws coldSpotChecks of a phase's n
// queries.
func spotStride(n int) int { return max(1, n/coldSpotChecks) }

// check reports whether r is a well-formed 200 answer to query p, and
// keeps it for the reference check when spot is set. A malformed
// answer is also recorded as wrong.
func (c *coldChecker) check(what string, r openResult, p [2]graph.VertexID, spot bool) bool {
	if r.code != http.StatusOK {
		return false
	}
	var a serve.BFSAnswer
	if err := json.Unmarshal(r.body, &a); err != nil {
		c.o.wrong("%s: undecodable answer: %v", what, err)
		return false
	}
	if a.Dataset != synth || a.Src != int64(p[0]) || a.Target != int64(p[1]) ||
		a.Reachable != (a.Dist >= 0) || a.Epoch != 0 {
		c.o.wrong("%s: answer %+v does not match query %v", what, a, p)
		return false
	}
	c.ok++
	if a.Cached {
		c.cached++
	}
	if spot {
		c.checks = append(c.checks, [3]int64{int64(p[0]), int64(p[1]), int64(a.Dist)})
	}
	return true
}

// runCapacity sends the queries from coldClients closed-loop clients
// and returns the responses, in query order, and the elapsed time.
func runCapacity(h http.Handler, bodies [][]byte) ([]openResult, time.Duration) {
	out := make([]openResult, len(bodies))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < coldClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(bodies) {
					return
				}
				t := time.Now()
				out[i].code, out[i].body = call(h, http.MethodPost, "/query/bfs", bodies[i])
				out[i].latency = time.Since(t)
			}
		}()
	}
	wg.Wait()
	return out, time.Since(start)
}

// verify compares the kept answers with algo.RefBFS levels on g,
// records each that disagrees as wrong, and clears them. It returns how
// many disagreed.
func (c *coldChecker) verify(g *graph.Graph) int {
	failed := 0
	for _, k := range c.checks {
		if want := algo.RefBFS(g, graph.VertexID(k[0])).Levels[k[1]]; int64(want) != k[2] {
			failed++
			c.o.wrong("bfs %d->%d answered dist %d, reference %d", k[0], k[1], k[2], want)
		}
	}
	c.checks = c.checks[:0]
	return failed
}

// runCold is the serve-cold workload: cold BFS point queries through
// the daemon's HTTP handler, in rounds on a fresh daemon each, first as
// an open loop at a low rate, then from closed-loop clients at
// capacity.
func runCold(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	chk := &coldChecker{o: o}
	var plan *coldPlan
	var d *daemon
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	var setups, p50s, rates, peaks []float64
	var lat, capLat samples
	var okLat, okCap, timed, spotFailed, cycles int
	var validate time.Duration
	late := lateness{RateRatio: 1}
	detail := &coldDetail{}
	o.Detail = detail
	for r := 0; r < coldRounds; r++ {
		if d != nil {
			d.close()
			d = nil
		}
		runtime.GC()
		start := time.Now()
		nd, err := startDaemon(rc.sess)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
		d = nd
		if plan == nil {
			o.Datasets[synth] = d.snapshotKey()
			plan = coldSchedule(rc.seed, d.g.NumVertices(), rc.dur)
		}
		rd := plan.rounds[r]

		hp := startHeapPeak()
		latRes := runOpen(d.h, rd.latency, nil, nil)
		capRes, capTime := runCapacity(d.h, rd.capacity)
		peak, _ := hp.stop()
		peaks = append(peaks, peak)
		cycles += int(hp.cycles.Load())

		var roundLat samples
		okBefore := chk.ok
		for j, res := range latRes {
			roundLat = append(roundLat, float64(res.latency))
			chk.check("latency step", res, rd.latPairs[j], j%spotStride(len(latRes)*coldRounds) == 0)
		}
		okLat += chk.ok - okBefore
		okBefore = chk.ok
		for j, res := range capRes {
			capLat = append(capLat, float64(res.latency))
			chk.check("capacity", res, rd.capPairs[j], j%spotStride(len(capRes)*coldRounds) == 0)
		}
		okCap += chk.ok - okBefore
		lat = append(lat, roundLat...)
		p50s = append(p50s, roundLat.quantile(0.5))
		rates = append(rates, float64(chk.ok-okBefore)/capTime.Seconds())
		late = late.worst(measureLateness(latRes, rd.latency))
		detail.Rounds = append(detail.Rounds, coldRoundResult{
			SetupS: setups[r], P50ms: ms(p50s[r]), CapacityQPS: rates[r], PeakHeapMB: peak})
		timed += len(latRes) + len(capRes)

		// A spot check that disagrees with the reference is one more
		// failure, counted against the timed phases it was drawn from.
		vstart := time.Now()
		spotFailed += chk.verify(d.g)
		validate += time.Since(vstart)
	}
	o.Invalid = append(o.Invalid, late.problems("latency step")...)
	o.Attempted, o.Failed = int64(timed), int64(timed-okLat-okCap+spotFailed)

	setupS := median(setups)
	peak := slices.Max(peaks)
	p50 := median(p50s)
	tailPct, tail := lat.tail()
	capacity := median(rates)
	capTailPct, capTail := capLat.tail()
	o.EndToEnd["setup_s"] = setupS
	o.EndToEnd["peak_heap_mb"] = peak
	o.EndToEnd["p50_ms"] = ms(p50)
	o.EndToEnd["tail_ms"] = ms(tail)
	o.EndToEnd["rate_per_s"] = capacity
	o.fig("read_p50_ms", ms(p50), "ms", fmt.Sprintf("at %d q/s, median over %d rounds of %d samples", coldLatencyRate, coldRounds, len(lat)/coldRounds))
	o.fig(fmt.Sprintf("read_p%g_ms", tailPct), ms(tail), "ms", fmt.Sprintf("at %d q/s, %d samples", coldLatencyRate, len(lat)))
	o.fig("capacity_qps", capacity, "q/s", fmt.Sprintf("median over %d rounds; %d of %d queries answered, %d closed-loop clients", coldRounds, okCap, len(capLat), coldClients))
	o.fig("capacity_p50_ms", ms(capLat.quantile(0.5)), "ms", fmt.Sprintf("%d samples", len(capLat)))
	o.fig(fmt.Sprintf("capacity_p%g_ms", capTailPct), ms(capTail), "ms", fmt.Sprintf("%d samples", len(capLat)))
	o.fig("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups, one per round", coldRounds))
	o.fig("peak_heap_mb", peak, "MB", fmt.Sprintf("highest live heap at %d collections over %d rounds", cycles, coldRounds))

	L := o.Layer
	L["loadgen.lateness_p99_ms"] = late.P99ms
	L["loadgen.lateness_max_ms"] = late.MaxMs
	L["loadgen.rate_ratio"] = late.RateRatio
	if rc.traced() {
		// The session's counters add up over the rounds' daemons.
		c := metricz(d.h)
		L["serve.overloads.timed"] = float64(c["serve.overloads"])
		L["serve.deadlines.timed"] = float64(c["serve.deadlines"])
		if c["serve.batches"] > 0 {
			L["serve.lanes_per_batch"] = float64(c["serve.lanes"]) / float64(c["serve.batches"])
		}
		L["serve.batch_ms"] = ms(spanDurations(rc.sess.Tracer.Export(), "serve.batch").quantile(0.5))
		detail.Ladder = runLadder(o, d, plan, chk, c)
		vstart := time.Now()
		chk.verify(d.g)
		validate += time.Since(vstart)
		var pairs [][2]graph.VertexID
		for _, rd := range plan.rounds {
			pairs = append(pairs, rd.latPairs...)
		}
		coldProbes(o, d.g, pairs)
	}
	if chk.ok > 0 {
		L["serve.hit_ratio"] = float64(chk.cached) / float64(chk.ok)
	}
	L["algo.validate_ms"] = ms(float64(validate))
	o.EndToEnd["ok_ratio"] = float64(okLat+okCap-spotFailed) / float64(timed)
	o.fig("error_ratio", float64(o.Failed)/float64(o.Attempted), "ratio", fmt.Sprintf("%d of %d queries", o.Failed, o.Attempted))
	return o, nil
}

// runLadder climbs the overload ladder after the timed phases of a
// traced run, stopping after the first step that fails; before holds
// the daemon's counters when it starts. Like the layer probes, it is
// outside the workload's attempted and failed counts: the refusals of
// its failing step are the outcome it measures, reported as
// serve.ladder_error_ratio. A malformed answer still fails the run.
// It returns the steps it ran.
func runLadder(o *outcome, d *daemon, plan *coldPlan, chk *coldChecker, before map[string]int64) []*coldStep {
	worst := lateness{RateRatio: 1}
	var steps []*coldStep
	var sent, ok int
	maxOK := 0.0
	for i, rate := range coldLadder {
		res := runOpen(d.h, plan.ladder[i], nil, nil)
		st := &coldStep{Rate: rate, Sent: len(res), Statuses: map[int]int{}}
		var lat samples
		okBefore := chk.ok
		for j, r := range res {
			st.Statuses[r.code]++
			lat = append(lat, float64(r.latency))
			chk.check(fmt.Sprintf("q%g", rate), r, plan.ladderPairs[i][j], j%spotStride(len(res)) == 0)
		}
		st.OK = chk.ok - okBefore
		st.ErrorRatio = 1 - float64(st.OK)/float64(st.Sent)
		st.P50ms = ms(lat.quantile(0.5))
		st.TailPct, st.TailMs = lat.tail()
		st.TailMs = ms(st.TailMs)
		st.Backlog = growingBacklog(res)
		st.Late = measureLateness(res, plan.ladder[i])
		st.OKRate = rate * st.Late.RateRatio * float64(st.OK) / float64(st.Sent)
		worst = worst.worst(st.Late)
		o.Invalid = append(o.Invalid, st.Late.problems(fmt.Sprintf("q%g", rate))...)
		st.Pass = st.TailMs <= ms(float64(stepTailLimit)) && st.ErrorRatio <= stepErrorLimit && !st.Backlog
		after := metricz(d.h)
		st.Overloads = after["serve.overloads"] - before["serve.overloads"]
		st.Deadlines = after["serve.deadlines"] - before["serve.deadlines"]
		before = after
		steps = append(steps, st)
		sent += st.Sent
		ok += st.OK
		if !st.Pass {
			break
		}
		maxOK = st.OKRate
	}

	L := o.Layer
	L["serve.max_ok_rate_qps"] = maxOK
	L["serve.ladder_error_ratio"] = float64(sent-ok) / float64(sent)
	for _, st := range steps {
		L["serve.overloads.ladder"] += float64(st.Overloads)
		L["serve.deadlines.ladder"] += float64(st.Deadlines)
		verdict := "pass"
		if !st.Pass {
			verdict = "fail"
		}
		o.fig(fmt.Sprintf("ladder_q%g", st.Rate), st.TailMs, "ms", fmt.Sprintf(
			"%s: p50 %.2f ms, p%g %.2f ms, errors %.4f, statuses %v, overloads %d, deadlines %d, backlog %v, late p99 %.2f ms",
			verdict, st.P50ms, st.TailPct, st.TailMs, st.ErrorRatio, st.Statuses, st.Overloads, st.Deadlines, st.Backlog, st.Late.P99ms))
	}
	o.fig("max_ok_rate_qps", maxOK, "q/s", "achieved OK rate of the highest passing ladder step")
	L["loadgen.lateness_p99_ms"] = max(L["loadgen.lateness_p99_ms"], worst.P99ms)
	L["loadgen.lateness_max_ms"] = max(L["loadgen.lateness_max_ms"], worst.MaxMs)
	L["loadgen.rate_ratio"] = min(L["loadgen.rate_ratio"], worst.RateRatio)
	return steps
}

// growingBacklog reports whether latency climbed through a step: the
// median of its last quarter is more than twice that of its first
// quarter plus 5 ms.
func growingBacklog(res []openResult) bool {
	q := len(res) / 4
	if q < 10 {
		return false
	}
	var head, tail samples
	for _, r := range res[:q] {
		head = append(head, float64(r.latency))
	}
	for _, r := range res[len(res)-q:] {
		tail = append(tail, float64(r.latency))
	}
	return tail.quantile(0.5) > 2*head.quantile(0.5)+float64(5*time.Millisecond)
}

// coldProbes times the kernel and the certificate directly on the
// workload's own sources.
func coldProbes(o *outcome, g *graph.Graph, pairs [][2]graph.VertexID) {
	seen := map[graph.VertexID]bool{}
	var srcs []graph.VertexID
	for _, p := range pairs {
		if !seen[p[0]] && len(srcs) < algo.MaxBFSLanes {
			seen[p[0]] = true
			srcs = append(srcs, p[0])
		}
	}
	var trees []*algo.BFSTree
	for _, lanes := range []int{1, 8, 64} {
		if lanes > len(srcs) {
			continue
		}
		var xs []float64
		for rep := 0; rep < 3; rep++ {
			t := time.Now()
			ts, err := algo.BFSMultiSource(context.Background(), g, srcs[:lanes], algo.GapOptions{})
			xs = append(xs, ms(float64(time.Since(t))))
			if err != nil {
				o.wrong("BFSMultiSource: %v", err)
				return
			}
			trees = ts
		}
		o.Layer[fmt.Sprintf("algo.msbfs_ms.l%d", lanes)] = median(xs)
	}
	t := time.Now()
	for l, tr := range trees {
		if err := algo.ValidateBFS(g, srcs[l], &tr.BFSResult); err != nil {
			o.wrong("ValidateBFS lane %d: %v", l, err)
		}
	}
	if len(trees) > 0 {
		o.Layer["algo.validate_bfs_ms_per_lane"] = ms(float64(time.Since(t))) / float64(len(trees))
	}
}
