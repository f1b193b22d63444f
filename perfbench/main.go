// Command perfbench is the repository's benchmark. It drives the
// public entry points users hit — platform.Platform.Run for the paper
// pipeline and serve.Server.Handler().ServeHTTP for the daemon — on
// four named workloads, checks every output, and prints every metric
// BENCHMARK.json names. See README.md in this directory.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	perfbench compare <base.json>... -- <head.json>...
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end metrics; with --trace 1 the workload runs once
// untraced and once with an obs.Session attached, and the metrics are
// the per-layer metrics, including the tracing overhead.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/obs"
)

// workload is one named traffic mix.
type workload struct {
	name string
	run  func(rc *runCtx) (*outcome, error)
	// setupReps is how many times an untraced run sets up: as many as
	// fit in a few seconds, one priming pass of serve-hot taking 2-3 s.
	// serve-cold ignores it and sets up once per round.
	setupReps int
}

var workloads = []workload{
	{"paper-matrix", runMatrix, 7},
	{"serve-cold", runCold, coldRounds},
	{"serve-hot", runHot, 3},
	{"serve-stream", runStream, 5},
}

// runCtx is what a workload run receives.
type runCtx struct {
	seed int64
	dur  time.Duration
	// setupReps is how many times set-up runs; set-up time is their
	// median.
	setupReps int
	// sess is the observability session of a traced run, nil otherwise.
	sess *obs.Session
	// workDir is a private scratch directory inside the output tree.
	workDir string
}

func (rc *runCtx) traced() bool { return rc.sess != nil }

// span opens a span from the benchmark's own code around a call into
// one layer; a no-op when untraced.
func (rc *runCtx) span(name string, kind obs.SpanKind) func() {
	t := rc.sess.T()
	ref := t.Begin(name, kind, -1, obs.SpanRef{})
	return func() { t.End(ref) }
}

// outcome is one workload run's result.
type outcome struct {
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Wrong lists output-check failures; any makes the run incorrect.
	Wrong []string `json:"wrong,omitempty"`
	// Invalid lists measurement-validity problems (a late load
	// generator); any makes the run incorrect.
	Invalid []string `json:"invalid,omitempty"`
	// EndToEnd holds the BENCHMARK.json end-to-end metrics.
	EndToEnd map[string]float64 `json:"end_to_end"`
	// Figures are the workload's figures under their own names, for
	// the report (pass_s, read_p99_ms, max_ok_rate_qps, ...).
	Figures []figure `json:"figures"`
	// Layer holds per-layer metrics; filled in full only when traced.
	Layer map[string]float64 `json:"per_layer,omitempty"`
	// Datasets maps each dataset to its datagen snapshot key.
	Datasets map[string]string `json:"datasets"`
	// Detail is workload-specific (ladder steps, cells).
	Detail any `json:"detail,omitempty"`
}

type figure struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Note  string  `json:"note,omitempty"`
}

func newOutcome() *outcome {
	return &outcome{EndToEnd: map[string]float64{}, Layer: map[string]float64{}, Datasets: map[string]string{}}
}

// wrong records an output-check failure; the first few are kept.
func (o *outcome) wrong(format string, args ...any) {
	o.Failed++
	if len(o.Wrong) < 20 {
		o.Wrong = append(o.Wrong, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) fig(name string, v float64, unit, note string) {
	o.Figures = append(o.Figures, figure{name, v, unit, note})
}

// correct reports whether the run passed every check. Each workload is
// sized so that no timed operation fails on this code, so a failed
// operation (a 429, a 504, a wrong answer) is a regression: it makes
// the run incorrect instead of only lowering ok_ratio.
func (o *outcome) correct() bool {
	return len(o.Wrong) == 0 && len(o.Invalid) == 0 && o.Failed == 0
}

// spec is BENCHMARK.json, the single source of metric names and units.
type spec struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec() (*spec, error) {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return nil, fmt.Errorf("reading BENCHMARK.json (run from the repository root): %w", err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	return &s, nil
}

// overheadPrefix names the per-layer metrics that hold, for each
// end-to-end metric, traced minus untraced.
const overheadPrefix = "overhead."

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: paper-matrix, serve-cold, serve-hot or serve-stream")
	seed := fs.Int64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Int("seconds", 20, "measured seconds per run")
	trace := fs.Int("trace", 0, "1: report per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		return errors.New("--seconds must be at least 1 and --trace 0 or 1")
	}
	sp, err := loadSpec()
	if err != nil {
		return err
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	outDir := os.Getenv("PERFBENCH_OUT")
	if outDir == "" {
		outDir = ".bench_build"
	}
	work, err := os.MkdirTemp(mkdirAll(outDir), "work-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	rc := &runCtx{seed: *seed, dur: time.Duration(*seconds) * time.Second, setupReps: w.setupReps, workDir: work}

	res := &result{Env: pinEnv(w.name, *seed, *seconds, *trace)}
	if *trace == 0 {
		res.Run, err = w.run(rc)
		if err != nil {
			return err
		}
	} else {
		if err := runTraced(w, rc, res, filepath.Join(mkdirAll(filepath.Join(outDir, "trace")),
			fmt.Sprintf("%s-seed%d.json", w.name, *seed))); err != nil {
			return err
		}
	}
	res.Env.Datasets = res.Run.Datasets

	metrics, err := res.metrics(sp, *trace == 1)
	if err != nil {
		return err
	}
	res.report(os.Stdout, sp, *trace == 1)
	path := filepath.Join(mkdirAll(filepath.Join(outDir, "results")),
		fmt.Sprintf("%s-seed%d-trace%d.json", w.name, *seed, *trace))
	if err := writeJSONFile(path, res); err != nil {
		return err
	}
	fmt.Println("result file:", path)

	if res.Run.Attempted < 1 {
		return errors.New("the run attempted no operation")
	}
	line, err := json.Marshal(map[string]any{
		"correct":   res.correct(),
		"attempted": res.Run.Attempted,
		"failed":    res.Run.Failed,
		"metrics":   metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// result is what one invocation records: the pinned environment, the
// run, and for a traced invocation the untraced run it is compared
// against.
type result struct {
	Env       env      `json:"env"`
	Run       *outcome `json:"run"`
	Untraced  *outcome `json:"untraced,omitempty"`
	TracePath string   `json:"trace_path,omitempty"`
}

func (r *result) correct() bool {
	return r.Run.correct() && (r.Untraced == nil || r.Untraced.correct())
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics selects the BENCHMARK.json metrics for the final line.
// Per-layer metrics a workload does not exercise read 0; an end-to-end
// metric missing or not finite is an error, as is a per-layer metric
// the workload produced that BENCHMARK.json does not name.
func (r *result) metrics(sp *spec, layer bool) (map[string]metricValue, error) {
	out := map[string]metricValue{}
	if !layer {
		for _, m := range sp.EndToEnd {
			v, ok := r.Run.EndToEnd[m.Name]
			if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("end-to-end metric %s not measured", m.Name)
			}
			out[m.Name] = metricValue{v, m.Unit}
		}
		return out, nil
	}
	known := map[string]bool{}
	for _, m := range sp.PerLayer {
		known[m.Name] = true
		v := r.Run.Layer[m.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.Name] = metricValue{v, m.Unit}
	}
	for name := range r.Run.Layer {
		if !known[name] {
			return nil, fmt.Errorf("per-layer metric %s is not in BENCHMARK.json", name)
		}
	}
	return out, nil
}

// runTraced runs the workload untraced, then again with an obs.Session
// attached, exports the session's spans as a Chrome trace, and records
// the tracing overhead on every end-to-end metric.
func runTraced(w *workload, rc *runCtx, res *result, tracePath string) error {
	rc.setupReps = 1
	plain, err := w.run(rc)
	if err != nil {
		return err
	}
	sess := obs.NewSession(obs.Options{SpanCapacity: 1 << 18, NoSampler: true})
	defer sess.Close()
	traced := *rc
	traced.sess = sess
	run, err := w.run(&traced)
	if err != nil {
		return err
	}
	for name, v := range run.EndToEnd {
		run.Layer[overheadPrefix+name] = v - plain.EndToEnd[name]
	}
	if d := sess.Tracer.Dropped(); d > 0 {
		run.Invalid = append(run.Invalid, fmt.Sprintf("span ring dropped %d spans", d))
	}
	f, err := os.Create(tracePath)
	if err != nil {
		return err
	}
	if err := sess.Tracer.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	res.Run, res.Untraced, res.TracePath = run, plain, tracePath
	return nil
}

// report prints the human-readable result.
func (r *result) report(w io.Writer, sp *spec, layer bool) {
	e := r.Env
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %d\n", e.Workload, e.Seed, e.Seconds, e.Trace)
	fmt.Fprintf(w, "env: GOMAXPROCS=%d NumCPU=%d cpu=%q go=%s git=%s\n",
		e.GOMAXPROCS, e.NumCPU, e.CPUModel, e.GoVersion, orDash(e.GitSHA))
	for _, ds := range sortedKeys(e.Datasets) {
		fmt.Fprintf(w, "dataset %s: %s\n", ds, e.Datasets[ds])
	}
	for _, f := range r.Run.Figures {
		note := ""
		if f.Note != "" {
			note = "  (" + f.Note + ")"
		}
		fmt.Fprintf(w, "  %-28s %14.6g %s%s\n", f.Name, f.Value, f.Unit, note)
	}
	fmt.Fprintf(w, "end to end:\n")
	for _, m := range sp.EndToEnd {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, r.Run.EndToEnd[m.Name], m.Unit)
	}
	if layer {
		fmt.Fprintf(w, "per layer:\n")
		for _, m := range sp.PerLayer {
			if v, ok := r.Run.Layer[m.Name]; ok {
				fmt.Fprintf(w, "  %-28s %14.6g %s\n", m.Name, v, m.Unit)
			}
		}
		if r.TracePath != "" {
			fmt.Fprintf(w, "chrome trace: %s\n", r.TracePath)
		}
	}
	fmt.Fprintf(w, "attempted %d failed %d correct %v\n", r.Run.Attempted, r.Run.Failed, r.correct())
	for _, o := range []*outcome{r.Untraced, r.Run} {
		if o == nil {
			continue
		}
		for _, s := range o.Wrong {
			fmt.Fprintln(w, "  WRONG:", s)
		}
		for _, s := range o.Invalid {
			fmt.Fprintln(w, "  INVALID:", s)
		}
	}
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func mkdirAll(dir string) string {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	return dir
}

func writeJSONFile(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
