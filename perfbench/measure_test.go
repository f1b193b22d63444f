package main

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

func TestQuantileInterpolates(t *testing.T) {
	s := samples{40, 10, 30, 20}
	if got := s.quantile(0.5); got != 25 {
		t.Fatalf("median = %v, want 25", got)
	}
	if got := s.quantile(1); got != 40 {
		t.Fatalf("max = %v, want 40", got)
	}
}

func TestTailLeavesTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{1000, 99}, {999, 98}, {200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 100}} {
		s := make(samples, c.n)
		for i := range s {
			s[i] = float64(i)
		}
		if pct, _ := s.tail(); pct != c.want {
			t.Errorf("n=%d: tail percentile %v, want %v", c.n, pct, c.want)
		}
	}
}

func TestHistogramQuantilesTrackExact(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	var s samples
	for i := 0; i < 20000; i++ {
		// Log-uniform from 100 ns to 100 ms, across many powers of two.
		v := time.Duration(100 * math.Exp(rng.Float64()*math.Log(1e6)))
		h.record(v)
		s = append(s, float64(v))
	}
	for _, q := range []float64{0, 0.01, 0.5, 0.9, 0.99, 1} {
		got, want := h.quantile(q), s.quantile(q)
		if math.Abs(got-want) > want/(1<<histSubBits) {
			t.Errorf("q%g: histogram %v, exact %v", q, got, want)
		}
	}
	if pct, _ := h.tail(); pct != 99 {
		t.Errorf("tail percentile %v, want 99", pct)
	}
	var small histogram
	for _, v := range []time.Duration{40, 10, 30, 20} {
		small.record(v)
	}
	if got := small.quantile(0.5); got != 25 {
		t.Errorf("small median = %v, want 25", got)
	}
	var merged histogram
	merged.add(&h)
	merged.add(&small)
	if merged.n != h.n+small.n {
		t.Errorf("merged %d samples, want %d", merged.n, h.n+small.n)
	}
}

func TestSelfTimesSubtractChildren(t *testing.T) {
	recs := []obs.SpanRecord{
		{ID: 1, Name: "platform", StartNs: 0, EndNs: 100},
		{ID: 2, Name: "run", StartNs: 10, EndNs: 90},               // contained, no recorded parent
		{ID: 3, ParentID: 2, Name: "step", StartNs: 20, EndNs: 50}, // recorded parent
		{ID: 4, ParentID: 2, Name: "step", StartNs: 50, EndNs: 80},
		{ID: 5, Name: "other", StartNs: 100, EndNs: 130}, // after, not contained
	}
	rs, self := selfTimes(recs)
	got := map[string]int64{}
	for i, r := range rs {
		got[r.Name] += self[i]
	}
	want := map[string]int64{"platform": 20, "run": 20, "step": 60, "other": 30}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self(%s) = %d, want %d", name, got[name], w)
		}
	}
}
