package main

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"runtime/metrics"
	"sync/atomic"
	"time"

	"repro/internal/perf"
)

// samples is a set of latencies in nanoseconds.
type samples []float64

// quantile returns the q-quantile (0 ≤ q ≤ 1) with perf.Quantile's
// interpolation, or NaN when there is nothing to measure, so that an
// unmeasured metric is rejected instead of reading 0.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	return perf.Quantile(s, q)
}

// tailPercentiles are the candidates for a reported tail, highest
// first; p99 is the highest the benchmark reports.
var tailPercentiles = []float64{99, 98, 95, 90, 75, 50}

// tailPercentile returns the highest candidate percentile with at
// least ten of n samples beyond it. With fewer than 20 samples no
// candidate qualifies and it returns 100, the maximum.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000 {
			return p
		}
	}
	return 100
}

// tail returns tailPercentile's percentile and its value.
func (s samples) tail() (pct, value float64) {
	pct = tailPercentile(len(s))
	return pct, s.quantile(pct / 100)
}

// histSubBits sets a histogram's resolution: values below
// 2^(histSubBits+1) ns have a bucket each, larger ones share 2^histSubBits
// buckets per power of two, so a bucket is at most 0.4% of its value wide.
const histSubBits = 8

// histogram counts latencies in nanoseconds in log-linear buckets. Its
// size is fixed, so recording allocates nothing and the memory it holds
// does not depend on how many samples a run records.
type histogram struct {
	counts [(64 - histSubBits + 1) << histSubBits]uint64
	n      uint64
}

func histIndex(v uint64) int {
	if v < 2<<histSubBits {
		return int(v)
	}
	e := bits.Len64(v) - histSubBits - 1
	return e<<histSubBits + int(v>>e)
}

// bucket returns the lowest value of bucket i and its width.
func histBucket(i int) (lo, width float64) {
	if i < 2<<histSubBits {
		return float64(i), 1
	}
	e := i>>histSubBits - 1
	return float64(uint64(i-e<<histSubBits) << e), float64(uint64(1) << e)
}

func (h *histogram) record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.counts[histIndex(uint64(d))]++
	h.n++
}

func (h *histogram) add(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// rank returns the value of the r-th smallest sample (0-based), spread
// evenly through its bucket.
func (h *histogram) rank(r uint64) float64 {
	var cum uint64
	for i, c := range h.counts {
		if r < cum+c {
			lo, w := histBucket(i)
			if w == 1 {
				return lo
			}
			return lo + w*(float64(r-cum)+0.5)/float64(c)
		}
		cum += c
	}
	return math.NaN()
}

// quantile interpolates between closest ranks as samples.quantile does;
// NaN when empty.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return math.NaN()
	}
	pos := q * float64(h.n-1)
	lo := uint64(math.Floor(pos))
	v := h.rank(lo)
	if frac := pos - float64(lo); frac > 0 {
		v += (h.rank(lo+1) - v) * frac
	}
	return v
}

// tail returns tailPercentile's percentile and its value.
func (h *histogram) tail() (pct, value float64) {
	pct = tailPercentile(int(h.n))
	return pct, h.quantile(pct / 100)
}

// ms converts nanoseconds to milliseconds.
func ms(ns float64) float64 { return ns / 1e6 }

// heapMetrics are the live Go heap as marked by the latest garbage
// collection, and the count of collections. Unlike the allocated heap,
// which swings up to the GC target between collections, the live heap
// measures what the program holds.
var heapMetrics = []string{"/gc/heap/live:bytes", "/gc/cycles/total:gc-cycles"}

// heapPeak records the highest live heap seen at the end of a garbage
// collection while it is on. The peak is taken over the whole timed
// phase: on paper-matrix one pass's highest value moved between 77 and
// 103 MB from pass to pass, depending on which collection landed on a
// transient peak; the highest over a run's four or five passes had a
// quartile spread of 9-15% over ten seeds.
type heapPeak struct {
	stopCh chan struct{}
	done   chan struct{}
	on     atomic.Bool
	peak   atomic.Uint64
	cycles atomic.Int64 // collections seen while on
}

// startHeapPeak starts watching, on; it polls every millisecond. It
// collects garbage first: a collection still running from set-up would
// report what set-up held, such as a daemon it has since closed.
func startHeapPeak() *heapPeak {
	h := &heapPeak{stopCh: make(chan struct{}), done: make(chan struct{})}
	runtime.GC()
	h.on.Store(true)
	sample := make([]metrics.Sample, len(heapMetrics))
	for i, name := range heapMetrics {
		sample[i].Name = name
	}
	metrics.Read(sample)
	seen := sample[1].Value.Uint64()
	read := func() {
		metrics.Read(sample)
		if c := sample[1].Value.Uint64(); c != seen {
			seen = c
			if live := sample[0].Value.Uint64(); h.on.Load() {
				h.cycles.Add(1)
				if live > h.peak.Load() {
					h.peak.Store(live)
				}
			}
		}
	}
	go func() {
		defer close(h.done)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				read()
			case <-h.stopCh:
				read()
				return
			}
		}
	}()
	return h
}

// pause stops recording, for work outside the timed phase; resume
// collects garbage, for the reason startHeapPeak does, and starts
// again.
func (h *heapPeak) pause() { h.on.Store(false) }

func (h *heapPeak) resume() {
	runtime.GC()
	h.on.Store(true)
}

// stop collects garbage once, so the live heap at the end counts too,
// ends the watch, and returns the peak in MiB with a note giving the
// number of collections it was taken over.
func (h *heapPeak) stop() (float64, string) {
	h.on.Store(true)
	runtime.GC()
	close(h.stopCh)
	<-h.done
	return float64(h.peak.Load()) / (1 << 20), fmt.Sprintf("highest live heap at %d collections", h.cycles.Load())
}

// memCounters is a point-in-time read of the allocator's cumulative
// counters.
type memCounters struct {
	allocBytes, allocs uint64
	pauseNs            uint64
}

func readMem() memCounters {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memCounters{allocBytes: m.TotalAlloc, allocs: m.Mallocs, pauseNs: m.PauseTotalNs}
}

func (a memCounters) sub(b memCounters) memCounters {
	return memCounters{allocBytes: a.allocBytes - b.allocBytes, allocs: a.allocs - b.allocs, pauseNs: a.pauseNs - b.pauseNs}
}

// median returns perf.Median of xs, or NaN when xs is empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return perf.Median(xs)
}

// timeSetup runs setup reps times, keeping the last instance and
// closing the others, and returns the median set-up time in seconds.
func timeSetup[T any](reps int, setup func() (T, error), closeFn func(T)) (T, float64, error) {
	var keep T
	var secs []float64
	for i := 0; i < reps; i++ {
		runtime.GC()
		start := time.Now()
		v, err := setup()
		if err != nil {
			return keep, 0, err
		}
		secs = append(secs, time.Since(start).Seconds())
		if i > 0 {
			closeFn(keep)
		}
		keep = v
	}
	return keep, median(secs), nil
}
