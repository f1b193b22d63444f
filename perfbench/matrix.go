package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"time"

	"repro/internal/algo"
	"repro/internal/cluster"
	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/platform"
)

// cell is one paper-pipeline run: what `graphbench run` executes.
type cell struct {
	Platform, Algorithm, Dataset string
	// Partitioner and Shards pin an explicit placement; empty keeps
	// the engine's default layout.
	Partitioner string
	Shards      int
}

func (c cell) String() string {
	s := c.Platform + "/" + c.Algorithm + "/" + c.Dataset
	if c.Partitioner != "" {
		s += fmt.Sprintf("/%s-%d", c.Partitioner, c.Shards)
	}
	return s
}

// matrixDatasets are ingested from text edge lists on every pass.
var matrixDatasets = []string{"KGS", "Amazon"}

// matrixGraphSeed generates the datasets, as graphbench's default -seed
// does; like the daemon's graph, they stay fixed across workload seeds.
// The workload seed picks what a user varies per run: the BFS source
// and the algorithm parameters' seed. Graphs generated from the
// workload seed moved the peak live heap between 64 and 100 MB across
// seeds, a spread wider than any bound the benchmark may set.
const matrixGraphSeed = 42

// matrixSourceTries bounds the draws matrixSource makes.
const matrixSourceTries = 512

// matrixCells is the fixed pass. Every engine keeps a share. Four
// cells of the full 24-cell list are left out to fit several passes in
// a run: Hadoop and Stratosphere CONN on Amazon (3.6 s and 1.7 s, 68
// iterations of job launches), Giraph STATS on KGS (1.6 s) and GraphLab
// CD on KGS (1.1 s); Neo4j CD on KGS stays as Neo4j's only cell with
// real work.
var matrixCells = func() []cell {
	var cs []cell
	for _, p := range []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "Neo4j"} {
		for _, d := range matrixDatasets {
			cs = append(cs, cell{Platform: p, Algorithm: platform.BFS, Dataset: d})
		}
	}
	for _, p := range []string{"Giraph", "GraphLab"} {
		for _, d := range matrixDatasets {
			cs = append(cs, cell{Platform: p, Algorithm: platform.CONN, Dataset: d})
		}
	}
	return append(cs,
		cell{Platform: "Neo4j", Algorithm: platform.CONN, Dataset: "Amazon"},
		cell{Platform: "Neo4j", Algorithm: platform.CD, Dataset: "KGS"},
		cell{Platform: "Giraph", Algorithm: platform.CONN, Dataset: "KGS", Partitioner: partition.EdgeCut, Shards: 20},
		cell{Platform: "GraphLab", Algorithm: platform.CONN, Dataset: "KGS", Partitioner: partition.EdgeCut, Shards: 20},
	)
}()

// matrixWantStatus is every cell's expected status. On DAS4(20,1) at
// scale 1 every cell of the pass completes; none is a crash or timeout
// of the paper's matrix, so any other status is a failure.
const matrixWantStatus = platform.OK

// matrixPlatforms are the platforms in Table 4 order, for the
// per-platform sums.
var matrixPlatforms = []string{"Hadoop", "YARN", "Stratosphere", "Giraph", "GraphLab", "Neo4j"}

// engineSpans maps the per-layer self-time metrics to the span names
// the engines emit.
var engineSpans = map[string]string{
	"span.superstep_ms":    "superstep",
	"span.iteration_ms":    "iteration",
	"span.map_ms":          "map",
	"span.sort-shuffle_ms": "sort-shuffle",
	"span.reduce_ms":       "reduce",
	"span.materialise_ms":  "materialise",
	"span.yarn_app_ms":     "yarn:app",
}

// matrixInput is one dataset after set-up: the generated graph (the
// reference the checks use), its text edge list and the BFS source.
type matrixInput struct {
	name string
	prof datagen.Profile
	gen  *graph.Graph
	path string
	src  graph.VertexID
}

// passStats is what one pass measured.
type passStats struct {
	total, read, validate time.Duration
	platform              map[string]time.Duration
	ops, net, disk        int64
	barriers, jobs        int64
	simSeconds            float64
	mem                   memCounters
}

// setupMatrix generates both datasets and writes their text edge lists
// into a directory of its own. Rewriting the previous set-up's files
// instead waited for their writeback: from the third set-up on, one
// took 1.0-1.3 s instead of 0.2 s.
func setupMatrix(rc *runCtx) ([]matrixInput, error) {
	dir, err := os.MkdirTemp(rc.workDir, "setup-")
	if err != nil {
		return nil, err
	}
	var ins []matrixInput
	for _, name := range matrixDatasets {
		p, err := datagen.ByName(name)
		if err != nil {
			return nil, err
		}
		g := p.GenerateScaled(1, matrixGraphSeed)
		path := filepath.Join(dir, name+".txt")
		if err := writeText(path, g); err != nil {
			return nil, err
		}
		ins = append(ins, matrixInput{name: name, prof: p, gen: g, path: path})
	}
	return ins, nil
}

// matrixSource draws the BFS source from the workload seed among the
// vertices whose BFS takes as many levels as one from graphbench's
// default source. On KGS a uniform source takes 9 to 15 levels, and the
// iterative engines launch a job or a superstep per level, so without
// this the seed alone would move the pass time.
func matrixSource(g *graph.Graph, seed int64) (graph.VertexID, error) {
	want := algo.RefBFS(g, algo.PickSource(g, matrixGraphSeed)).Iterations
	for k := int64(0); k < matrixSourceTries; k++ {
		src := algo.PickSource(g, seed*matrixSourceTries+k)
		if algo.RefBFS(g, src).Iterations == want {
			return src, nil
		}
	}
	return 0, fmt.Errorf("no source with a %d-level BFS in %d draws", want, matrixSourceTries)
}

func writeText(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteText(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readText(path string) (*graph.Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadText(bufio.NewReaderSize(f, 1<<20))
}

// matrixRefs are the algo references each cell is checked against,
// with the experiment driver's rules.
type matrixRefs struct {
	src  map[string]graph.VertexID
	conn map[string][]graph.VertexID
	cd   map[string]algo.CDResult
}

func newMatrixRefs(seed int64, ins []matrixInput) *matrixRefs {
	r := &matrixRefs{src: map[string]graph.VertexID{}, conn: map[string][]graph.VertexID{}, cd: map[string]algo.CDResult{}}
	for _, in := range ins {
		r.src[in.name] = in.src
		for _, c := range matrixCells {
			if c.Dataset != in.name {
				continue
			}
			switch c.Algorithm {
			case platform.CONN:
				if r.conn[in.name] == nil {
					r.conn[in.name] = in.gen.ConnectedComponents()
				}
			case platform.CD:
				if _, ok := r.cd[in.name]; !ok {
					r.cd[in.name] = algo.RefCD(in.gen, algo.DefaultParams(seed))
				}
			}
		}
	}
	return r
}

// check validates one output the way internal/experiment does: the
// BFS structural certificate, exact component and community labels.
func (r *matrixRefs) check(c cell, g *graph.Graph, out any) error {
	switch v := out.(type) {
	case algo.BFSResult:
		return algo.ValidateBFS(g, r.src[c.Dataset], &v)
	case algo.ConnResult:
		want := r.conn[c.Dataset]
		if !reflect.DeepEqual(v.Labels, want) {
			return fmt.Errorf("CONN labels differ from the component-minimum reference")
		}
		if n := algo.CountLabels(want); v.Components != n {
			return fmt.Errorf("CONN components = %d, reference has %d", v.Components, n)
		}
		return nil
	case algo.CDResult:
		want := r.cd[c.Dataset]
		if !reflect.DeepEqual(v.Labels, want.Labels) || v.Communities != want.Communities {
			return fmt.Errorf("CD labels differ from the reference fixed point")
		}
		return nil
	}
	return fmt.Errorf("no check for output type %T", out)
}

func graphBytes(g *graph.Graph) []byte {
	var buf bytes.Buffer
	if err := graph.WriteBinary(&buf, g); err != nil {
		return nil
	}
	return buf.Bytes()
}

// runMatrix is the paper-matrix workload: closed, sequential passes
// over matrixCells on DAS4(20,1), each pass ingesting both datasets
// from their text edge lists first.
func runMatrix(rc *runCtx) (*outcome, error) {
	o := newOutcome()
	ins, setupS, err := timeSetup(rc.setupReps, func() ([]matrixInput, error) { return setupMatrix(rc) },
		func([]matrixInput) {})
	if err != nil {
		return nil, err
	}
	for i := range ins {
		o.Datasets[ins[i].name] = datagen.SnapshotKey(ins[i].name, 1, matrixGraphSeed)
		if ins[i].src, err = matrixSource(ins[i].gen, rc.seed); err != nil {
			return nil, fmt.Errorf("%s: %w", ins[i].name, err)
		}
	}
	refs := newMatrixRefs(rc.seed, ins)
	hw := cluster.DAS4(20, 1)

	// The first pass fixes each cell's simulated time, which every
	// later pass must repeat.
	expSim := map[int]float64{}
	var passes []passStats
	var last []*platform.Result
	var lastGraphs map[string]*graph.Graph
	var pass time.Duration
	hp := startHeapPeak()
	for len(passes) < 2 || pass < rc.dur {
		hp.resume()
		ps, results, graphs, err := matrixPass(rc, ins, hw)
		hp.pause()
		if err != nil {
			hp.stop()
			return nil, err
		}
		pass += ps.total
		vstart := time.Now()
		if len(passes) == 0 {
			for _, in := range ins {
				if !bytes.Equal(graphBytes(graphs[in.name]), graphBytes(in.gen)) {
					o.wrong("%s: graph read back from text differs from the generated graph", in.name)
				}
			}
		}
		for i, r := range results {
			c := matrixCells[i]
			o.Attempted++
			if len(passes) == 0 {
				expSim[i] = r.Seconds
			}
			switch {
			case r.Status != matrixWantStatus:
				o.wrong("%s: status %s, want %s", c, r.Status, matrixWantStatus)
			case r.Seconds != expSim[i]:
				o.wrong("%s: simulated T %v, first pass had %v", c, r.Seconds, expSim[i])
			default:
				if err := refs.check(c, graphs[c.Dataset], r.Output); err != nil {
					o.wrong("%s: INVALID: %v", c, err)
				}
			}
		}
		ps.validate = time.Since(vstart)
		passes = append(passes, ps)
		last, lastGraphs = results, graphs
	}
	peak, peakNote := hp.stop()

	passNs := make(samples, len(passes))
	for i, p := range passes {
		passNs[i] = float64(p.total)
	}
	tailPct, tailNs := passNs.tail()
	p50 := passNs.quantile(0.5)
	o.EndToEnd["setup_s"] = setupS
	o.EndToEnd["peak_heap_mb"] = peak
	o.EndToEnd["ok_ratio"] = 1 - float64(o.Failed)/float64(o.Attempted)
	o.EndToEnd["p50_ms"] = ms(p50)
	o.EndToEnd["tail_ms"] = ms(tailNs)
	o.EndToEnd["rate_per_s"] = float64(len(matrixCells)*len(passes)) / pass.Seconds()
	o.fig("pass_s", p50/1e9, "s", fmt.Sprintf("median of %d passes of %d cells", len(passes), len(matrixCells)))
	o.fig("pass_tail_s", tailNs/1e9, "s", fmt.Sprintf("p%g of %d passes", tailPct, len(passes)))
	o.fig("error_ratio", float64(o.Failed)/float64(o.Attempted), "ratio", fmt.Sprintf("%d of %d cells", o.Failed, o.Attempted))
	o.fig("setup_s", setupS, "s", fmt.Sprintf("median of %d set-ups", rc.setupReps))
	o.fig("peak_heap_mb", peak, "MB", peakNote)

	perPass := func(f func(p passStats) float64) float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return median(xs)
	}
	L := o.Layer
	L["graph.read_text_ms"] = perPass(func(p passStats) float64 { return ms(float64(p.read)) })
	for _, name := range matrixPlatforms {
		L["platform."+strings.ToLower(name)+"_s"] = perPass(func(p passStats) float64 { return p.platform[name].Seconds() })
	}
	L["pass.unaccounted_ms"] = perPass(func(p passStats) float64 {
		rest := p.total - p.read
		for _, d := range p.platform {
			rest -= d
		}
		return ms(float64(rest))
	})
	L["engine.ops"] = perPass(func(p passStats) float64 { return float64(p.ops) })
	L["engine.net_bytes"] = perPass(func(p passStats) float64 { return float64(p.net) })
	L["engine.disk_bytes"] = perPass(func(p passStats) float64 { return float64(p.disk) })
	L["engine.barriers"] = perPass(func(p passStats) float64 { return float64(p.barriers) })
	L["engine.jobs"] = perPass(func(p passStats) float64 { return float64(p.jobs) })
	L["cluster.sim_s_total"] = perPass(func(p passStats) float64 { return p.simSeconds })
	L["runtime.alloc_mb"] = perPass(func(p passStats) float64 { return float64(p.mem.allocBytes) / (1 << 20) })
	L["runtime.gc_pause_ms"] = perPass(func(p passStats) float64 { return ms(float64(p.mem.pauseNs)) })
	L["algo.validate_ms"] = perPass(func(p passStats) float64 { return ms(float64(p.validate)) })
	if rc.traced() {
		matrixProbes(rc, o, last, lastGraphs, hw, len(passes))
	}
	o.Detail = map[string]any{"cells": cellNames(), "passes": len(passes)}
	return o, nil
}

func cellNames() []string {
	out := make([]string, len(matrixCells))
	for i, c := range matrixCells {
		out[i] = c.String()
	}
	return out
}

// matrixPass ingests both datasets and runs every cell once.
func matrixPass(rc *runCtx, ins []matrixInput, hw cluster.Hardware) (passStats, []*platform.Result, map[string]*graph.Graph, error) {
	ps := passStats{platform: map[string]time.Duration{}}
	graphs := map[string]*graph.Graph{}
	results := make([]*platform.Result, len(matrixCells))
	memBefore := readMem()
	endPass := rc.span("bench.pass", obs.KindRun)
	start := time.Now()
	for _, in := range ins {
		endRead := rc.span("bench.ingest:"+in.name, obs.KindJob)
		t := time.Now()
		g, err := readText(in.path)
		ps.read += time.Since(t)
		endRead()
		if err != nil {
			endPass()
			return ps, nil, nil, fmt.Errorf("ingesting %s: %w", in.name, err)
		}
		graphs[in.name] = g
	}
	for i, c := range matrixCells {
		p, err := platform.ByName(c.Platform)
		if err != nil {
			endPass()
			return ps, nil, nil, err
		}
		var in matrixInput
		for _, x := range ins {
			if x.name == c.Dataset {
				in = x
			}
		}
		g := graphs[c.Dataset]
		params := algo.DefaultParams(rc.seed)
		params.BFSSource = in.src
		endRun := rc.span("bench.platform:"+c.Platform, obs.KindRun)
		t := time.Now()
		r := p.Run(platform.Spec{
			Algorithm: c.Algorithm, Dataset: in.prof, G: g, HW: hw,
			Params: params, WarmCache: true, ScaleFactor: 1, Obs: rc.sess,
			Partitioner: c.Partitioner, Shards: c.Shards,
		})
		ps.platform[c.Platform] += time.Since(t)
		endRun()
		results[i] = r
		ps.simSeconds += r.Seconds
		if r.Profile != nil {
			for _, ph := range r.Profile.Phases {
				ps.ops += ph.Ops
				ps.net += ph.Net
				ps.disk += ph.DiskRead + ph.DiskWrite
				ps.barriers += int64(ph.Barriers)
				ps.jobs += int64(ph.Jobs)
			}
		}
	}
	ps.total = time.Since(start)
	endPass()
	ps.mem = readMem().sub(memBefore)
	return ps, results, graphs, nil
}

// matrixProbes times single layers directly and reads the engine spans
// of the traced passes.
func matrixProbes(rc *runCtx, o *outcome, last []*platform.Result, graphs map[string]*graph.Graph, hw cluster.Hardware, passes int) {
	L := o.Layer
	var build []float64
	for i := 0; i < 3; i++ {
		t := time.Now()
		if _, err := partition.Build(partition.EdgeCut, graphs["KGS"], 20); err != nil {
			o.wrong("partition.Build: %v", err)
		}
		build = append(build, ms(float64(time.Since(t))))
	}
	L["partition.build_ms"] = median(build)

	var cost time.Duration
	for i, r := range last {
		p, err := platform.ByName(matrixCells[i].Platform)
		if err != nil || r.Profile == nil {
			continue
		}
		t := time.Now()
		p.Costs().Time(r.Profile, hw)
		cost += time.Since(t)
	}
	L["cluster.cost_model_ms"] = ms(float64(cost))

	recs := rc.sess.Tracer.Export()
	rs, self := selfTimes(recs)
	byName := map[string]int64{}
	var operators int64
	for i, r := range rs {
		byName[r.Name] += self[i]
		if r.Kind == obs.KindOperator.String() {
			operators += self[i]
		}
	}
	for metric, name := range engineSpans {
		L[metric] = ms(float64(byName[name])) / float64(passes)
	}
	L["span.dataflow_operator_ms"] = ms(float64(operators)) / float64(passes)
}
