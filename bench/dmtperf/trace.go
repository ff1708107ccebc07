package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stream"
)

// The traced run wraps the program's layers in the decorators below,
// all on the benchmark's side of the public API: a learner (preq-*), the
// trainer and replica scorers, the HTTP handlers and the follower's
// transport. The untraced run installs none of them, so the end-to-end
// numbers are taken on the program's own hot paths.

// Trace context travels between the load generator or follower and the
// handlers in these request headers.
const (
	spanHeader = "X-Dmtperf-Span"
	reqHeader  = "X-Dmtperf-Req"
)

// maxSpans bounds the in-memory span log; spans past it are counted, not
// kept.
const maxSpans = 1 << 20

// span is one timed call at a layer boundary. N is the work it did:
// rows for learner and scorer calls, bytes for checkpoints, restores
// and envelope bodies.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Req    uint64 `json:"req,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	N      int64  `json:"n,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	t0      time.Time
	ids     atomic.Uint64
	mu      sync.Mutex
	spans   []span
	dropped int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) id() uint64 { return t.ids.Add(1) }

// now is the trace clock: nanoseconds since the tracer started.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) add(s span) {
	if s.ID == 0 {
		s.ID = t.id()
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// byName groups the recorded spans by name.
func (t *tracer) byName() map[string][]span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[string][]span{}
	for _, s := range t.spans {
		out[s.Name] = append(out[s.Name], s)
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval that its child spans cover.
func (t *tracer) selfTimes() map[uint64]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return selfTimes(t.spans)
}

func selfTimes(spans []span) map[uint64]time.Duration {
	children := map[uint64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]time.Duration, len(spans))
	for _, p := range spans {
		kids := children[p.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, p.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[p.ID] = time.Duration(p.End - p.Start - covered)
	}
	return self
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// tracedLearner records the learner's share of a prequential run: one
// predict span per test phase (first Predict to the Learn that ends it),
// one learn span and one complexity span per iteration. It implements
// only model.Classifier, like the learner it wraps as eval sees it, so
// the evaluator takes the same code path as in the untraced run.
type tracedLearner struct {
	model.Classifier
	tr         *tracer
	layer      string
	parent     *uint64 // the open eval.prequential span
	predicting bool
	predStart  int64
	preds      int64
}

func (l *tracedLearner) Predict(x []float64) int {
	if !l.predicting {
		l.predicting, l.predStart, l.preds = true, l.tr.now(), 0
	}
	l.preds++
	return l.Classifier.Predict(x)
}

func (l *tracedLearner) Learn(b stream.Batch) {
	start := l.tr.now()
	if l.predicting {
		l.tr.add(span{Parent: *l.parent, Name: l.layer + ".predict", Start: l.predStart, End: start, N: l.preds})
		l.predicting = false
	}
	l.Classifier.Learn(b)
	l.tr.add(span{Parent: *l.parent, Name: l.layer + ".learn", Start: start, End: l.tr.now(), N: int64(b.Len())})
}

func (l *tracedLearner) Complexity() model.Complexity {
	start := l.tr.now()
	c := l.Classifier.Complexity()
	l.tr.add(span{Parent: *l.parent, Name: l.layer + ".complexity", Start: start, End: l.tr.now()})
	return c
}

// tracedScorer records Learn, PredictBatch, Checkpoint and Restore of a
// serving scorer. active, when set, names the handler span the call runs
// under (see tracedHandler); keep, when set, receives every envelope
// Restore installs.
type tracedScorer struct {
	serve.Scorer
	tr     *tracer
	active *atomic.Uint64
	keep   func(raw []byte)
}

func (s *tracedScorer) parent() uint64 {
	if s.active == nil {
		return 0
	}
	return s.active.Load()
}

func (s *tracedScorer) Learn(b stream.Batch) {
	start := s.tr.now()
	s.Scorer.Learn(b)
	s.tr.add(span{Name: "serve.learn", Start: start, End: s.tr.now(), N: int64(b.Len())})
}

func (s *tracedScorer) PredictBatch(X [][]float64, out []int) []int {
	start := s.tr.now()
	out = s.Scorer.PredictBatch(X, out)
	s.tr.add(span{Parent: s.parent(), Name: "serve.predict_batch", Start: start, End: s.tr.now(), N: int64(len(X))})
	return out
}

func (s *tracedScorer) Checkpoint(w io.Writer) error {
	cw := &countingWriter{w: w}
	start := s.tr.now()
	err := s.Scorer.Checkpoint(cw)
	s.tr.add(span{Parent: s.parent(), Name: "serve.checkpoint", Start: start, End: s.tr.now(), N: cw.n})
	return err
}

func (s *tracedScorer) Restore(r io.Reader) error {
	raw, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	if s.keep != nil {
		s.keep(raw)
	}
	start := s.tr.now()
	err = s.Scorer.Restore(bytes.NewReader(raw))
	s.tr.add(span{Name: "serve.restore", Start: start, End: s.tr.now(), N: int64(len(raw))})
	return err
}

type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

// tracedHandler records one span per request, named after its path
// (server.predict, server.predict_batch, server.envelope) and linked to
// the client span that sent it. While exactly one request is in flight
// its span id is published in active, so scorer calls made on the
// handler's behalf become its children; both servers of fleet-follow
// see one request at a time, so there the link is exact.
type tracedHandler struct {
	h        http.Handler
	tr       *tracer
	active   atomic.Uint64
	inflight atomic.Int64
}

func (t *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := t.tr.id()
	parent, _ := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
	req, _ := strconv.ParseUint(r.Header.Get(reqHeader), 10, 64)
	if t.inflight.Add(1) == 1 {
		t.active.Store(id)
	} else {
		t.active.Store(0)
	}
	start := t.tr.now()
	t.h.ServeHTTP(w, r)
	end := t.tr.now()
	t.active.CompareAndSwap(id, 0)
	t.inflight.Add(-1)
	t.tr.add(span{ID: id, Parent: parent, Req: req, Name: "server." + strings.TrimPrefix(r.URL.Path, "/v1/"), Start: start, End: end})
}

// followTransport is the follower's transport. It always counts the body
// bytes of envelope responses; traced, it also records a follow.fetch
// span per request (the parent of the trainer's server.envelope span),
// plus follow.ttfb (send to response headers: the long-poll hold, the
// handler's version poll, capture and diff) and follow.body (headers to
// the last body byte) for each 200 answer.
type followTransport struct {
	base  http.RoundTripper
	tr    *tracer
	bytes atomic.Int64
	ok    atomic.Int64
}

func (t *followTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	var id uint64
	var start int64
	if t.tr != nil {
		id = t.tr.id()
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
		req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
		start = t.tr.now()
	}
	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	b := &countedBody{ReadCloser: resp.Body, ok: resp.StatusCode == http.StatusOK, t: t}
	if t.tr != nil {
		b.id, b.start, b.ttfb = id, start, t.tr.now()
	}
	resp.Body = b
	return resp, nil
}

type countedBody struct {
	io.ReadCloser
	t           *followTransport
	ok          bool
	n           int64
	id          uint64
	start, ttfb int64
	closeOnce   sync.Once
}

func (b *countedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *countedBody) Close() error {
	err := b.ReadCloser.Close()
	b.closeOnce.Do(func() {
		if b.ok {
			b.t.ok.Add(1)
			b.t.bytes.Add(b.n)
		}
		tr := b.t.tr
		if tr == nil {
			return
		}
		end := tr.now()
		tr.add(span{ID: b.id, Req: b.id, Name: "follow.fetch", Start: b.start, End: end, N: b.n})
		if b.ok {
			tr.add(span{Req: b.id, Name: "follow.ttfb", Start: b.start, End: b.ttfb})
			tr.add(span{Req: b.id, Name: "follow.body", Start: b.ttfb, End: end, N: b.n})
		}
	})
	return err
}

// clientSpan wraps one load-generator request: it stamps the trace
// headers and records a client.<name> span from send to the end of the
// response. With a nil tracer it only runs do.
func clientSpan(tr *tracer, name string, req *http.Request, do func(*http.Request) error) error {
	if tr == nil {
		return do(req)
	}
	id := tr.id()
	req.Header.Set(spanHeader, strconv.FormatUint(id, 10))
	req.Header.Set(reqHeader, strconv.FormatUint(id, 10))
	start := tr.now()
	err := do(req)
	tr.add(span{ID: id, Req: id, Name: "client." + name, Start: start, End: tr.now()})
	return err
}

// spanLayers derives the span-based per-layer metrics. rows is the
// number of rows the workload's learner consumed, the base of the
// eval.self rate.
func spanLayers(tr *tracer, rows float64) map[string]float64 {
	by := tr.byName()
	self := tr.selfTimes()
	total := func(name string) (d time.Duration, n int64) {
		for _, s := range by[name] {
			d += s.dur()
			n += s.N
		}
		return d, n
	}
	durMS := func(names ...string) []float64 {
		var out []float64
		for _, name := range names {
			for _, s := range by[name] {
				out = append(out, ms(s.dur()))
			}
		}
		return out
	}
	perRowUS := func(name string) float64 {
		d, n := total(name)
		return ratio(float64(d)/float64(time.Microsecond), float64(n))
	}
	selfMS := func(name string) []float64 {
		var out []float64
		for _, s := range by[name] {
			out = append(out, ms(self[s.ID]))
		}
		return out
	}
	nOf := func(name string) []float64 {
		var out []float64
		for _, s := range by[name] {
			out = append(out, float64(s.N))
		}
		return out
	}

	m := map[string]float64{}
	for _, l := range preqLearners {
		m[l.layer+".learn_us_per_row"] = perRowUS(l.layer + ".learn")
		m[l.layer+".predict_us_per_row"] = perRowUS(l.layer + ".predict")
	}
	cd, _ := total("core.complexity")
	m["core.complexity_us_per_iter"] = ratio(float64(cd)/float64(time.Microsecond), float64(len(by["core.complexity"])))
	var evalSelf time.Duration
	for _, s := range by["eval.prequential"] {
		evalSelf += self[s.ID]
	}
	m["eval.self_us_per_row"] = ratio(float64(evalSelf)/float64(time.Microsecond), rows)

	m["serve.learn_us_per_row"] = perRowUS("serve.learn")
	m["serve.learn_ms_p99"] = percentile(durMS("serve.learn"), 99)
	m["serve.predict_batch_us_p50"] = 1000 * median(durMS("serve.predict_batch"))
	m["serve.checkpoint_ms_p50"] = median(durMS("serve.checkpoint"))
	m["serve.checkpoint_ms_p99"] = percentile(durMS("serve.checkpoint"), 99)
	m["serve.checkpoint_bytes_p50"] = median(nOf("serve.checkpoint"))
	m["serve.restore_ms_p50"] = median(durMS("serve.restore"))

	m["server.handler_p50_ms"] = median(durMS("server.predict", "server.predict_batch"))
	// A client span's self time is its latency minus the handler time
	// inside it: encode, transport, decode on both sides.
	m["net.client_overhead_p50_ms"] = median(append(selfMS("client.predict"), selfMS("client.predict_batch")...))
	m["server.envelope_ttfb_ms_p50"] = median(durMS("follow.ttfb"))
	m["server.envelope_body_ms_p50"] = median(durMS("follow.body"))
	m["server.envelope_wire_bytes_p50"] = median(nOf("follow.body"))

	tr.mu.Lock()
	m["trace.spans"] = float64(len(tr.spans))
	m["trace.dropped_spans"] = float64(tr.dropped)
	tr.mu.Unlock()
	return m
}
