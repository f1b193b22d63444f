package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algo"
	"repro/internal/datagen"
	"repro/internal/evolve"
	"repro/internal/graph"
	"repro/internal/serve"
)

// serve-stream shape: reads at streamReadRate (80% bfs, 20% component)
// beside one writer sending UpdateStream batches in order at
// streamWriteRate, at the daemon's default CompactEvery.
const (
	streamReadRate  = 80
	streamWriteRate = 10
	streamBatchOps  = 16
	streamDeletes   = 0.3
	// streamCompactEvery is the daemon's default CompactEvery, which
	// the probes replay.
	streamCompactEvery = 64
)

// streamWrite is one write's fate.
type streamWrite struct {
	latency time.Duration
	code    int
	ans     serve.MutateAnswer
	err     error
}

// runStream is the serve-stream workload.
func runStream(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	nBatches := int(streamWriteRate * rc.dur.Seconds())
	type stream struct {
		d       *daemon
		batches []evolve.Batch
	}
	s, setupS, err := timeSetup(rc.setupReps, func() (stream, error) {
		d, err := startDaemon(rc.sess)
		if err != nil {
			return stream{}, err
		}
		return stream{d, datagen.UpdateStream(d.g, rc.seed, nBatches, streamBatchOps, streamDeletes)}, nil
	}, func(s stream) { s.d.close() })
	if err != nil {
		return nil, err
	}
	defer s.d.close()
	d, batches := s.d, s.batches
	base := d.g
	o.Datasets[synth] = d.snapshotKey()
	want, err := cleanReplay(base, batches)
	if err != nil {
		return nil, err
	}

	// The schedule, fixed before the run: reads at even spacing with
	// seeded kinds and vertices, writes at even spacing in order.
	rng := rand.New(rand.NewSource(rc.seed))
	n := base.NumVertices()
	reads := make([]openSend, int(streamReadRate*rc.dur.Seconds()))
	for i := range reads {
		reads[i].due = time.Duration(float64(i) / streamReadRate * float64(time.Second))
		if rng.Intn(100) < 80 {
			reads[i].path = "/query/bfs"
			reads[i].body = bfsBody(nil, graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		} else {
			reads[i].path = "/query/component"
			reads[i].body = componentBody(nil, graph.VertexID(rng.Intn(n)))
		}
	}
	writeBodies := make([][]byte, len(batches))
	for i, b := range batches {
		if writeBodies[i], err = json.Marshal(map[string]any{"dataset": synth, "seq": b.Seq, "ops": b.Ops}); err != nil {
			return nil, err
		}
	}

	// handed is the highest sequence number given to the daemon, acked
	// the highest epoch a write was answered with: a read sent after
	// an acknowledged write must see at least its epoch, and no answer
	// may run ahead of what was handed out.
	var handed, acked atomic.Uint64
	floors := make([]uint64, len(reads))
	ceilings := make([]uint64, len(reads))
	var overlay int
	writes := make([]streamWrite, len(batches))
	var wg sync.WaitGroup
	hp := startHeapPeak()
	start := time.Now()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range batches {
			due := start.Add(time.Duration(float64(i) / streamWriteRate * float64(time.Second)))
			if w := time.Until(due); w > 0 {
				time.Sleep(w)
			}
			handed.Store(batches[i].Seq)
			code, body := call(d.h, http.MethodPost, "/mutate", writeBodies[i])
			writes[i].latency, writes[i].code = time.Since(due), code
			if code == http.StatusOK {
				writes[i].err = json.Unmarshal(body, &writes[i].ans)
				if writes[i].err == nil && writes[i].ans.Epoch > acked.Load() {
					acked.Store(writes[i].ans.Epoch)
				}
			}
		}
	}()
	readRes := runOpen(d.h, reads, func(i int) {
		floors[i] = acked.Load()
		if snap, err := d.srv.Snapshot(synth); err == nil && !snap.OverlayEmpty() {
			overlay++
		}
	}, func(i int) { ceilings[i] = handed.Load() })
	wg.Wait()
	end := time.Now()
	peak, peakNote := hp.stop()

	var readLat, writeLat samples
	var torn, okOps int
	for i, r := range readRes {
		o.Attempted++
		readLat = append(readLat, float64(r.latency))
		if r.code != http.StatusOK {
			o.Failed++
			continue
		}
		var a struct {
			Epoch     uint64 `json:"epoch"`
			Reachable *bool  `json:"reachable"`
			Dist      *int32 `json:"dist"`
		}
		if err := json.Unmarshal(r.body, &a); err != nil {
			o.wrong("read %d: undecodable answer: %v", i, err)
			continue
		}
		if a.Epoch < floors[i] || a.Epoch > ceilings[i] {
			torn++
			o.wrong("read %d: torn epoch %d outside [%d,%d]", i, a.Epoch, floors[i], ceilings[i])
			continue
		}
		if a.Reachable != nil && a.Dist != nil && *a.Reachable != (*a.Dist >= 0) {
			o.wrong("read %d: reachable %v with dist %d", i, *a.Reachable, *a.Dist)
			continue
		}
		okOps++
	}
	for i, w := range writes {
		o.Attempted++
		writeLat = append(writeLat, float64(w.latency))
		switch {
		case w.code != http.StatusOK:
			o.Failed++
		case w.err != nil:
			o.wrong("write %d: undecodable answer: %v", i, w.err)
		case w.ans.Status != evolve.StatusApplied || w.ans.Epoch != batches[i].Seq:
			o.wrong("write %d: status %s epoch %d, want applied at %d", i, w.ans.Status, w.ans.Epoch, batches[i].Seq)
		default:
			okOps++
		}
	}

	// The final graph must byte-match a clean sequential replay.
	o.Attempted++
	vstart := time.Now()
	c := newClient(d.h)
	var stats serve.StatsAnswer
	if code, body := c.do(http.MethodPost, "/compact", []byte(`{"dataset":"Synth"}`)); code != http.StatusOK {
		o.wrong("compact: %d %s", code, body)
	} else if final, err := d.srv.Graph(synth); err != nil || !bytes.Equal(graphBytes(final), want) {
		o.wrong("final graph differs from a clean sequential replay of the %d batches", len(batches))
	} else if code, body := c.do(http.MethodGet, "/stats?dataset=Synth", nil); code != http.StatusOK {
		o.wrong("stats: %d %s", code, body)
	} else if err := json.Unmarshal(body, &stats); err != nil || stats.Epoch != uint64(len(batches)) {
		o.wrong("final epoch %d, want %d", stats.Epoch, len(batches))
	}
	validate := time.Since(vstart)

	readP50 := readLat.quantile(0.5)
	tailPct, tail := readLat.tail()
	writeP50, writeP90 := writeLat.quantile(0.5), writeLat.quantile(0.9)
	late := measureLateness(readRes, reads)
	o.Invalid = append(o.Invalid, late.problems("reads")...)
	o.EndToEnd["setup_s"] = setupS
	o.EndToEnd["peak_heap_mb"] = peak
	o.EndToEnd["ok_ratio"] = 1 - float64(o.Failed)/float64(o.Attempted)
	o.EndToEnd["p50_ms"] = ms(readP50)
	o.EndToEnd["tail_ms"] = ms(tail)
	o.EndToEnd["rate_per_s"] = float64(okOps) / end.Sub(start).Seconds()
	o.fig("read_p50_ms", ms(readP50), "ms", fmt.Sprintf("%d reads at %d/s", len(readLat), streamReadRate))
	o.fig(fmt.Sprintf("read_p%g_ms", tailPct), ms(tail), "ms", fmt.Sprintf("%d reads", len(readLat)))
	o.fig("write_p50_ms", ms(writeP50), "ms", fmt.Sprintf("%d writes at %d/s", len(writeLat), streamWriteRate))
	o.fig("write_p90_ms", ms(writeP90), "ms", fmt.Sprintf("%d writes", len(writeLat)))
	o.fig("error_ratio", float64(o.Failed)/float64(o.Attempted), "ratio", fmt.Sprintf("%d of %d operations, %d torn epochs", o.Failed, o.Attempted, torn))
	o.fig("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", rc.setupReps))
	o.fig("peak_heap_mb", peak, "MB", peakNote)

	L := o.Layer
	L["stream.write_p50_ms"] = ms(writeP50)
	L["stream.write_p90_ms"] = ms(writeP90)
	L["stream.overlay_share"] = float64(overlay) / float64(len(reads))
	L["serve.compactions"] = float64(stats.Compactions)
	L["loadgen.lateness_p99_ms"] = late.P99ms
	L["loadgen.lateness_max_ms"] = late.MaxMs
	L["loadgen.rate_ratio"] = late.RateRatio
	L["algo.validate_ms"] = ms(float64(validate))
	if rc.traced() {
		streamProbes(o, base, batches)
	}
	return o, nil
}

// cleanReplay applies every batch in order on a private Mutable and
// returns the compacted graph's bytes.
func cleanReplay(base *graph.Graph, batches []evolve.Batch) ([]byte, error) {
	m := evolve.NewMutable(base)
	for _, b := range batches {
		if _, err := m.Submit(b); err != nil {
			return nil, fmt.Errorf("clean replay of batch %d: %w", b.Seq, err)
		}
	}
	return graphBytes(m.Compact().Base()), nil
}

// streamProbes replays the workload's batches on a private Mutable and
// IncrementalCC and times each evolve and algo call the write and read
// paths make.
func streamProbes(o *outcome, base *graph.Graph, batches []evolve.Batch) {
	m := evolve.NewMutable(base)
	cc := algo.NewIncrementalCC(base)
	k := min(len(batches), streamCompactEvery)
	var submit, apply, labels []float64
	for _, b := range batches[:k] {
		t := time.Now()
		if _, err := m.Submit(b); err != nil {
			o.wrong("probe submit %d: %v", b.Seq, err)
			return
		}
		submit = append(submit, ms(float64(time.Since(t))))
		t = time.Now()
		cc.Apply(b.Ops)
		apply = append(apply, ms(float64(time.Since(t))))
		// The daemon recomputes the labels once per epoch, on the first
		// component lookup after a write.
		t = time.Now()
		cc.Labels(m.Snapshot())
		labels = append(labels, ms(float64(time.Since(t))))
	}
	L := o.Layer
	L["evolve.submit_ms"] = median(submit)
	L["algo.cc_apply_ms"] = median(apply)
	L["algo.cc_labels_ms"] = median(labels)

	snap := m.Snapshot()
	var bfs, check []float64
	for i := 0; i < 5; i++ {
		src := graph.VertexID(i * base.NumVertices() / 5)
		t := time.Now()
		levels, _, _ := snap.BFS(src)
		bfs = append(bfs, ms(float64(time.Since(t))))
		t = time.Now()
		if err := evolve.CheckBFS(snap, src, levels); err != nil {
			o.wrong("probe CheckBFS: %v", err)
		}
		check = append(check, ms(float64(time.Since(t))))
	}
	L["evolve.snapshot_bfs_ms"] = median(bfs)
	L["evolve.check_bfs_ms"] = median(check)

	t := time.Now()
	g := m.Compact().Base()
	L["evolve.compact_ms"] = ms(float64(time.Since(t)))
	t = time.Now()
	g.ConnectedComponents()
	L["graph.components_ms"] = ms(float64(time.Since(t)))
}
