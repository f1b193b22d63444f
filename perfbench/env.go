package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// env is the environment a result was measured under. The pinned
// fields must agree before two results may be compared.
type env struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
	// GitSHA is read from .git in the working directory; empty in a
	// checkout without one. It is recorded, not pinned: comparing two
	// revisions is the point of a comparison.
	GitSHA string `json:"git_sha,omitempty"`
	// Datasets maps each dataset to its datagen.SnapshotKey.
	Datasets map[string]string `json:"datasets"`
}

func pinEnv(workload string, seed int64, seconds, trace int) env {
	return env{
		Workload: workload, Seed: seed, Seconds: seconds, Trace: trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
		GitSHA:     gitSHA(),
	}
}

// pinned lists the fields that must match, with their values.
func (e env) pinned() map[string]string {
	m := map[string]string{
		"workload":   e.Workload,
		"seed":       fmt.Sprint(e.Seed),
		"seconds":    fmt.Sprint(e.Seconds),
		"trace":      fmt.Sprint(e.Trace),
		"gomaxprocs": fmt.Sprint(e.GOMAXPROCS),
		"num_cpu":    fmt.Sprint(e.NumCPU),
		"cpu_model":  e.CPUModel,
		"go_version": e.GoVersion,
	}
	for ds, key := range e.Datasets {
		m["dataset "+ds] = key
	}
	return m
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitSHA resolves HEAD from .git in the working directory without
// running git.
func gitSHA() string {
	head, err := os.ReadFile(filepath.Join(".git", "HEAD"))
	if err != nil {
		return ""
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if sha, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(sha))
	}
	packed, err := os.ReadFile(filepath.Join(".git", "packed-refs"))
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return ""
}

// compareMain compares result files of two builds:
//
//	perfbench compare <base.json>... -- <head.json>...
//
// It refuses (exit 3) when any pinned environment field differs among
// the files, because such numbers measure different conditions.
// Otherwise it prints, per end-to-end metric, each side's median and
// whether the head is worse than the base by more than the metric's
// bound (exit 1 when one is).
func compareMain(args []string) int {
	split := -1
	for i, a := range args {
		if a == "--" {
			split = i
		}
	}
	if split < 1 || split == len(args)-1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare <base.json>... -- <head.json>...")
		return 2
	}
	sp, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	base, err := loadResults(args[:split])
	if err == nil {
		var head []result
		head, err = loadResults(args[split+1:])
		if err == nil {
			return compareResults(sp, base, head)
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	return 2
}

func loadResults(paths []string) ([]result, error) {
	var out []result
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r result
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if r.Run == nil {
			return nil, fmt.Errorf("%s: no run recorded", p)
		}
		out = append(out, r)
	}
	return out, nil
}

func compareResults(sp *spec, base, head []result) int {
	// Seeds may differ between runs of one side (the benchmark is run
	// over several seeds), but each seed's key set must agree, so the
	// pins are compared with the seed and dataset keys set aside, and
	// the dataset keys are compared seed by seed.
	ref := base[0].Env.pinned()
	keysBySeed := map[int64]map[string]string{}
	var diffs []string
	for _, r := range append(append([]result(nil), base...), head...) {
		for k, v := range r.Env.pinned() {
			if k == "seed" || strings.HasPrefix(k, "dataset ") {
				continue
			}
			if ref[k] != v {
				diffs = append(diffs, fmt.Sprintf("%s: %q vs %q", k, ref[k], v))
			}
		}
		if prev, ok := keysBySeed[r.Env.Seed]; ok {
			for ds, key := range r.Env.Datasets {
				if prev[ds] != key {
					diffs = append(diffs, fmt.Sprintf("dataset %s at seed %d: %q vs %q", ds, r.Env.Seed, prev[ds], key))
				}
			}
		} else {
			keysBySeed[r.Env.Seed] = r.Env.Datasets
		}
	}
	if len(diffs) > 0 {
		sort.Strings(diffs)
		fmt.Println("REFUSED: pinned fields differ, the results are not comparable:")
		for _, d := range dedupe(diffs) {
			fmt.Println("  " + d)
		}
		return 3
	}
	worse := false
	fmt.Printf("%-16s %14s %14s %9s %7s\n", "metric", "base median", "head median", "change", "bound")
	for _, m := range sp.EndToEnd {
		b, h := sideMedian(base, m.Name), sideMedian(head, m.Name)
		change := (h - b) / b
		if m.Better == "higher" {
			change = (b - h) / b
		}
		verdict := ""
		if change > m.Bound {
			verdict = "  WORSE"
			worse = true
		}
		fmt.Printf("%-16s %14.6g %14.6g %+8.2f%% %6.0f%%%s\n", m.Name, b, h, 100*change*signFor(m), 100*m.Bound, verdict)
	}
	if worse {
		return 1
	}
	return 0
}

// signFor turns a "worse by" share back into the raw change in value.
func signFor(m metricSpec) float64 {
	if m.Better == "higher" {
		return -1
	}
	return 1
}

func sideMedian(rs []result, name string) float64 {
	var xs []float64
	for _, r := range rs {
		xs = append(xs, r.Run.EndToEnd[name])
	}
	return median(xs)
}

func dedupe(xs []string) []string {
	var out []string
	for i, x := range xs {
		if i == 0 || x != xs[i-1] {
			out = append(out, x)
		}
	}
	return out
}
