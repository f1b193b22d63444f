package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/datagen"
	"repro/internal/graph"
	"repro/internal/obs"
	"repro/internal/serve"
)

// synth is the dataset every serving workload uses.
const synth = "Synth"

// daemon is the serving daemon at its defaults on Synth at scale 1,
// which is what `graphbench serve -datasets Synth -scale 1` runs.
// Only the observability session of a traced run is added.
type daemon struct {
	srv *serve.Server
	h   http.Handler
	g   *graph.Graph
}

func startDaemon(sess *obs.Session) (*daemon, error) {
	srv, err := serve.New(serve.Config{Datasets: []string{synth}, Scale: 1, Obs: sess})
	if err != nil {
		return nil, err
	}
	g, err := srv.Graph(synth)
	if err != nil {
		srv.Close()
		return nil, err
	}
	return &daemon{srv: srv, h: srv.Handler(), g: g}, nil
}

func (d *daemon) close() { d.srv.Close() }

// snapshotKey is the key of the daemon's dataset: scale 1 and the
// daemon's default generation seed.
func (d *daemon) snapshotKey() string {
	cfg := d.srv.Config()
	return datagen.SnapshotKey(synth, cfg.Scale, cfg.Seed)
}

// recorder is a reusable http.ResponseWriter.
type recorder struct {
	hdr  http.Header
	code int
	body bytes.Buffer
}

func newRecorder() *recorder { return &recorder{hdr: http.Header{}} }

func (r *recorder) Header() http.Header { return r.hdr }

func (r *recorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}

func (r *recorder) Write(p []byte) (int, error) {
	r.WriteHeader(http.StatusOK)
	return r.body.Write(p)
}

func (r *recorder) reset() {
	r.code = 0
	r.body.Reset()
}

// reqBody is a request body that can be refilled, so a closed-loop
// client reuses one request per endpoint.
type reqBody struct{ bytes.Reader }

func (*reqBody) Close() error { return nil }

// client issues in-process requests through the daemon's handler, one
// at a time, reusing its request and response objects.
type client struct {
	h    http.Handler
	rw   *recorder
	reqs map[string]*http.Request
	body map[string]*reqBody
	buf  []byte
}

func newClient(h http.Handler) *client {
	return &client{h: h, rw: newRecorder(), reqs: map[string]*http.Request{}, body: map[string]*reqBody{}}
}

// prepare readies the request for path with the given body; the
// returned call runs it.
func (c *client) prepare(method, path string, body []byte) *http.Request {
	req, ok := c.reqs[path]
	if !ok {
		b := &reqBody{}
		var err error
		req, err = http.NewRequest(method, path, b)
		if err != nil {
			panic(err) // a constant path the benchmark controls
		}
		c.reqs[path], c.body[path] = req, b
	}
	c.body[path].Reset(body)
	req.ContentLength = int64(len(body))
	c.rw.reset()
	return req
}

// do runs one request and returns its status and body; the body is
// valid until the next call.
func (c *client) do(method, path string, body []byte) (int, []byte) {
	req := c.prepare(method, path, body)
	c.h.ServeHTTP(c.rw, req)
	return c.rw.code, c.rw.body.Bytes()
}

// call runs one request on fresh objects, for concurrent open-loop
// senders.
func call(h http.Handler, method, path string, body []byte) (int, []byte) {
	req, err := http.NewRequest(method, path, bytes.NewReader(body))
	if err != nil {
		panic(err)
	}
	rw := newRecorder()
	h.ServeHTTP(rw, req)
	return rw.code, rw.body.Bytes()
}

func bfsBody(buf []byte, src, target graph.VertexID) []byte {
	buf = append(buf[:0], `{"dataset":"Synth","src":`...)
	buf = strconv.AppendInt(buf, int64(src), 10)
	buf = append(buf, `,"target":`...)
	buf = strconv.AppendInt(buf, int64(target), 10)
	return append(buf, '}')
}

func khopBody(buf []byte, src graph.VertexID, k int) []byte {
	buf = append(buf[:0], `{"dataset":"Synth","src":`...)
	buf = strconv.AppendInt(buf, int64(src), 10)
	buf = append(buf, `,"k":`...)
	buf = strconv.AppendInt(buf, int64(k), 10)
	return append(buf, '}')
}

func componentBody(buf []byte, v graph.VertexID) []byte {
	buf = append(buf[:0], `{"dataset":"Synth","vertex":`...)
	buf = strconv.AppendInt(buf, int64(v), 10)
	return append(buf, '}')
}

// metricz reads the daemon's counters from GET /metricz; empty when no
// session is attached.
func metricz(h http.Handler) map[string]int64 {
	code, body := call(h, http.MethodGet, "/metricz", nil)
	if code != http.StatusOK {
		return map[string]int64{}
	}
	var snap obs.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		return map[string]int64{}
	}
	return snap.Counters
}

// distinctVertices draws k distinct vertices of [0,n) from rng.
func distinctVertices(rng *rand.Rand, n, k int) []graph.VertexID {
	seen := map[graph.VertexID]bool{}
	out := make([]graph.VertexID, 0, k)
	for len(out) < k {
		v := graph.VertexID(rng.Intn(n))
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// openSend is one scheduled request of an open loop.
type openSend struct {
	due  time.Duration // offset from the start of its step
	path string
	body []byte
}

// openResult is one request's fate.
type openResult struct {
	code    int
	body    []byte
	latency time.Duration // from the due time to the response
	late    time.Duration // how late the generator sent it
	issued  time.Time
}

// runOpen sends the schedule as an open loop: each request leaves at
// its due time on its own goroutine, whatever the others are doing,
// and is timed from its due time. before runs on the generator just
// before each send, after on the sender right after the response;
// either may be nil.
func runOpen(h http.Handler, sends []openSend, before, after func(i int)) []openResult {
	out := make([]openResult, len(sends))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range sends {
		due := start.Add(sends[i].due)
		if w := time.Until(due); w > 0 {
			time.Sleep(w)
		}
		now := time.Now()
		out[i].late, out[i].issued = now.Sub(due), now
		if before != nil {
			before(i)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			code, body := call(h, http.MethodPost, sends[i].path, sends[i].body)
			out[i].latency = time.Since(due)
			out[i].code, out[i].body = code, body
			if after != nil {
				after(i)
			}
		}(i, due)
	}
	wg.Wait()
	return out
}

// lateness summarises how late an open-loop generator ran, and the
// rate it achieved against the one intended.
type lateness struct {
	P99ms, MaxMs float64
	// RateRatio is achieved ÷ intended send rate.
	RateRatio float64
}

// Generator limits: a run whose sends left later than this is invalid.
const (
	lateP99Limit = 25 * time.Millisecond
	lateMaxLimit = 250 * time.Millisecond
	rateRatioMin = 0.95
)

func measureLateness(res []openResult, sends []openSend) lateness {
	var late samples
	for _, r := range res {
		late = append(late, float64(r.late))
	}
	l := lateness{P99ms: ms(late.quantile(0.99)), MaxMs: ms(late.quantile(1)), RateRatio: 1}
	if n := len(res); n > 1 {
		intended := sends[n-1].due - sends[0].due
		achieved := res[n-1].issued.Sub(res[0].issued)
		if achieved > 0 {
			l.RateRatio = intended.Seconds() / achieved.Seconds()
		}
	}
	return l
}

func (l lateness) problems(what string) []string {
	var out []string
	if l.P99ms > ms(float64(lateP99Limit)) || l.MaxMs > ms(float64(lateMaxLimit)) {
		out = append(out, fmt.Sprintf("%s: generator late (p99 %.2f ms, max %.2f ms; limits %v, %v)",
			what, l.P99ms, l.MaxMs, lateP99Limit, lateMaxLimit))
	}
	if l.RateRatio < rateRatioMin {
		out = append(out, fmt.Sprintf("%s: generator achieved %.3f of the intended rate", what, l.RateRatio))
	}
	return out
}

// worst combines two lateness summaries.
func (l lateness) worst(o lateness) lateness {
	return lateness{P99ms: max(l.P99ms, o.P99ms), MaxMs: max(l.MaxMs, o.MaxMs), RateRatio: min(l.RateRatio, o.RateRatio)}
}
