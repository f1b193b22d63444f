package main

import (
	"sort"

	"repro/internal/obs"
)

// selfTimes returns the spans ordered by start and each one's self
// time in nanoseconds: its duration minus the part its children cover. A
// span's parent is the one it recorded, or — for spans begun at top
// level, like an engine run inside the benchmark's own span — the
// innermost span that contains it. Containment is only meaningful for
// spans begun on one goroutine, which holds for the paper pipeline.
func selfTimes(recs []obs.SpanRecord) ([]obs.SpanRecord, []int64) {
	rs := append([]obs.SpanRecord(nil), recs...)
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].StartNs != rs[j].StartNs {
			return rs[i].StartNs < rs[j].StartNs
		}
		if rs[i].EndNs != rs[j].EndNs {
			return rs[i].EndNs > rs[j].EndNs
		}
		return rs[i].ID < rs[j].ID
	})
	index := make(map[uint64]int, len(rs))
	for i, r := range rs {
		index[r.ID] = i
	}
	covered := make([]int64, len(rs))
	var stack []int
	for i, r := range rs {
		for len(stack) > 0 && rs[stack[len(stack)-1]].EndNs <= r.StartNs {
			stack = stack[:len(stack)-1]
		}
		parent := -1
		if p, ok := index[r.ParentID]; ok && r.ParentID != 0 {
			parent = p
		} else if len(stack) > 0 && rs[stack[len(stack)-1]].EndNs >= r.EndNs {
			parent = stack[len(stack)-1]
		}
		if parent >= 0 {
			covered[parent] += min(r.EndNs, rs[parent].EndNs) - max(r.StartNs, rs[parent].StartNs)
		}
		stack = append(stack, i)
	}
	self := make([]int64, len(rs))
	for i, r := range rs {
		self[i] = max(0, r.EndNs-r.StartNs-covered[i])
	}
	return rs, self
}

// spanDurations returns the durations, in nanoseconds, of every span
// with the given name.
func spanDurations(recs []obs.SpanRecord, name string) samples {
	var out samples
	for _, r := range recs {
		if r.Name == name {
			out = append(out, float64(r.EndNs-r.StartNs))
		}
	}
	return out
}
