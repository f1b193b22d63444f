package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"repro/internal/algo"
	"repro/internal/graph"
	"repro/internal/serve"
)

// serve-hot shape: a closed loop of hotClients clients over hotSources
// sources primed at set-up, picked by Zipf(1.1); 60% bfs, 20% khop
// (k = 2), 20% component.
//
// Each client maps Zipf ranks to sources through a permutation it draws
// again every hotShuffleEvery queries, so the hot set moves through all
// the sources during a run. A khop answer costs 12 to 72 µs depending on
// its source, and the three top ranks draw 37% of the queries:
// with one fixed mapping, the run's rate followed those three sources
// and spread by 27% across seeds.
const (
	hotClients      = 2
	hotSources      = 256
	hotZipfS        = 1.1
	hotK            = 2
	hotShuffleEvery = 4096
	hotRefSources   = 32 // sources with a reference BFS
	hotCheckOne     = 16 // one answer in this many is decoded and checked
)

const (
	kindBFS = iota
	kindKHop
	kindComponent
	numKinds
)

var kindNames = [numKinds]string{"bfs", "khop", "component"}

// hotRefs are the benchmark's own answers for the first hotRefSources
// sources; the rotating ranks send each of them queries in turn.
type hotRefs struct {
	levels map[graph.VertexID][]int32
	khop   map[graph.VertexID][2]int // count within k hops, count at k
	labels []graph.VertexID
	sizes  map[graph.VertexID]int
}

func newHotRefs(g *graph.Graph, top []graph.VertexID) *hotRefs {
	r := &hotRefs{levels: map[graph.VertexID][]int32{}, khop: map[graph.VertexID][2]int{}, sizes: map[graph.VertexID]int{}}
	for _, src := range top {
		lv := algo.RefBFS(g, src).Levels
		r.levels[src] = lv
		var within, at int
		for _, l := range lv {
			if l >= 0 && l <= hotK {
				within++
				if l == hotK {
					at++
				}
			}
		}
		r.khop[src] = [2]int{within, at}
	}
	r.labels = g.ConnectedComponents()
	for _, l := range r.labels {
		r.sizes[l]++
	}
	return r
}

// setupHot starts the daemon and primes every source one query at a
// time (concurrent cold priming would hit the cold-path collapse),
// then primes the component labels.
func setupHot(rc *runCtx) (*daemon, []graph.VertexID, error) {
	d, err := startDaemon(rc.sess)
	if err != nil {
		return nil, nil, err
	}
	srcs := distinctVertices(rand.New(rand.NewSource(rc.seed)), d.g.NumVertices(), hotSources)
	c := newClient(d.h)
	for _, s := range srcs {
		if code, body := c.do(http.MethodPost, "/query/bfs", bfsBody(c.buf, s, s)); code != http.StatusOK {
			d.close()
			return nil, nil, fmt.Errorf("priming source %d: %d %s", s, code, body)
		}
	}
	if code, body := c.do(http.MethodPost, "/query/component", componentBody(c.buf, srcs[0])); code != http.StatusOK {
		d.close()
		return nil, nil, fmt.Errorf("priming component labels: %d %s", code, body)
	}
	return d, srcs, nil
}

// hotClientResult is one closed-loop client's record. Latencies go
// into fixed-size histograms allocated before the timed phase, so
// neither the peak heap nor the per-query allocation counters see
// buffers that grow with the rate.
type hotClientResult struct {
	lat             [numKinds]*histogram
	failed          int64
	checked, cached int64
	wrong           []string
}

// runHot is the serve-hot workload: a closed loop on a warm cache, so
// HTTP decode/encode, cache probes, khop's level scan and the label
// lookup do all the work.
func runHot(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	type hot struct {
		d    *daemon
		srcs []graph.VertexID
	}
	h, setupS, err := timeSetup(rc.setupReps, func() (hot, error) {
		d, srcs, err := setupHot(rc)
		return hot{d, srcs}, err
	}, func(h hot) { h.d.close() })
	if err != nil {
		return nil, err
	}
	defer h.d.close()
	d, srcs := h.d, h.srcs
	o.Datasets[synth] = d.snapshotKey()
	refs := newHotRefs(d.g, srcs[:hotRefSources])
	n := d.g.NumVertices()

	results := make([]*hotClientResult, hotClients)
	for ci := range results {
		results[ci] = &hotClientResult{}
		for k := range results[ci].lat {
			results[ci].lat[k] = new(histogram)
		}
	}
	var wg sync.WaitGroup
	runtimeBefore := readMem()
	hp := startHeapPeak()
	start := time.Now()
	deadline := start.Add(rc.dur)
	for ci, res := range results {
		wg.Add(1)
		go func(ci int, res *hotClientResult) {
			defer wg.Done()
			hotClient(d, srcs, refs, n, rand.New(rand.NewSource(rc.seed*1000+int64(ci))), deadline, res)
		}(ci, res)
	}
	wg.Wait()
	elapsed := time.Since(start)
	peak, peakNote := hp.stop()
	mem := readMem().sub(runtimeBefore)

	all := new(histogram)
	var perKind [numKinds]histogram
	var checked, cached int64
	for _, r := range results {
		for k, h := range r.lat {
			perKind[k].add(h)
			all.add(h)
		}
		o.Failed += r.failed
		checked += r.checked
		cached += r.cached
		for _, w := range r.wrong {
			if len(o.Wrong) < 20 {
				o.Wrong = append(o.Wrong, w)
			}
		}
	}
	o.Attempted = int64(all.n)
	p50 := all.quantile(0.5)
	tailPct, tail := all.tail()
	o.EndToEnd["setup_s"] = setupS
	o.EndToEnd["peak_heap_mb"] = peak
	o.EndToEnd["ok_ratio"] = 1 - float64(o.Failed)/float64(o.Attempted)
	o.EndToEnd["p50_ms"] = ms(p50)
	o.EndToEnd["tail_ms"] = ms(tail)
	o.EndToEnd["rate_per_s"] = float64(o.Attempted-o.Failed) / elapsed.Seconds()
	o.fig("read_p50_ms", ms(p50), "ms", fmt.Sprintf("%d samples", all.n))
	o.fig(fmt.Sprintf("read_p%g_ms", tailPct), ms(tail), "ms", fmt.Sprintf("%d samples", all.n))
	o.fig("qps", o.EndToEnd["rate_per_s"], "q/s", fmt.Sprintf("%d clients, closed loop", hotClients))
	o.fig("error_ratio", float64(o.Failed)/float64(o.Attempted), "ratio", fmt.Sprintf("%d of %d queries", o.Failed, o.Attempted))
	o.fig("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups, each priming %d sources", rc.setupReps, hotSources))
	o.fig("peak_heap_mb", peak, "MB", peakNote)

	L := o.Layer
	for k := range perKind {
		L["hot."+kindNames[k]+"_us"] = perKind[k].quantile(0.5) / 1e3
	}
	L["runtime.allocs_per_query"] = float64(mem.allocs) / float64(o.Attempted)
	L["runtime.bytes_per_query"] = float64(mem.allocBytes) / float64(o.Attempted)
	if checked > 0 {
		L["serve.hit_ratio"] = float64(cached) / float64(checked)
	}
	return o, nil
}

// hotClient runs one closed-loop client until the deadline. A query's
// latency runs from the call into the handler to its return.
func hotClient(d *daemon, srcs []graph.VertexID, refs *hotRefs, n int, rng *rand.Rand, deadline time.Time, res *hotClientResult) {
	c := newClient(d.h)
	zipf := rand.NewZipf(rng, hotZipfS, 1, hotSources-1)
	var rank []int
	for i := 0; ; i++ {
		if i%hotShuffleEvery == 0 {
			rank = rng.Perm(hotSources)
		}
		src := srcs[rank[zipf.Uint64()]]
		kind := kindComponent
		switch p := rng.Intn(100); {
		case p < 60:
			kind = kindBFS
		case p < 80:
			kind = kindKHop
		}
		var req *http.Request
		target := graph.VertexID(rng.Intn(n))
		switch kind {
		case kindBFS:
			c.buf = bfsBody(c.buf, src, target)
			req = c.prepare(http.MethodPost, "/query/bfs", c.buf)
		case kindKHop:
			c.buf = khopBody(c.buf, src, hotK)
			req = c.prepare(http.MethodPost, "/query/khop", c.buf)
		default:
			c.buf = componentBody(c.buf, src)
			req = c.prepare(http.MethodPost, "/query/component", c.buf)
		}
		t := time.Now()
		d.h.ServeHTTP(c.rw, req)
		end := time.Now()
		res.lat[kind].record(end.Sub(t))
		if c.rw.code != http.StatusOK {
			res.failed++
		} else if i%hotCheckOne == 0 {
			if err := checkHot(kind, src, target, c.rw.body.Bytes(), refs, res); err != nil {
				res.failed++
				if len(res.wrong) < 20 {
					res.wrong = append(res.wrong, err.Error())
				}
			}
		}
		if end.After(deadline) {
			return
		}
	}
}

// checkHot decodes one answer and compares it with the reference.
func checkHot(kind int, src, target graph.VertexID, body []byte, refs *hotRefs, res *hotClientResult) error {
	switch kind {
	case kindBFS:
		var a serve.BFSAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("bfs: undecodable answer: %v", err)
		}
		res.checked++
		if a.Cached {
			res.cached++
		}
		if a.Src != int64(src) || a.Target != int64(target) {
			return fmt.Errorf("bfs %d->%d: answer names %d->%d", src, target, a.Src, a.Target)
		}
		if lv, ok := refs.levels[src]; ok && lv[target] != a.Dist {
			return fmt.Errorf("bfs %d->%d: dist %d, reference %d", src, target, a.Dist, lv[target])
		}
	case kindKHop:
		var a serve.KHopAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("khop: undecodable answer: %v", err)
		}
		if want, ok := refs.khop[src]; ok && (a.Count != want[0] || a.Frontier != want[1]) {
			return fmt.Errorf("khop %d: count %d frontier %d, reference %d %d", src, a.Count, a.Frontier, want[0], want[1])
		}
	default:
		var a serve.ComponentAnswer
		if err := json.Unmarshal(body, &a); err != nil {
			return fmt.Errorf("component: undecodable answer: %v", err)
		}
		label := refs.labels[src]
		if a.Component != int64(label) || a.Size != refs.sizes[label] {
			return fmt.Errorf("component %d: label %d size %d, reference %d %d", src, a.Component, a.Size, label, refs.sizes[label])
		}
	}
	return nil
}
