package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/serve"
	"repro/internal/server"
)

// serve-single is dmtserve's default trainer — VFDT (MC) learning SEA at
// 20k rows/s in 100-row batches, publishing a snapshot after every
// batch, behind the default server.Config — under single-row JSON
// /v1/predict traffic from two connections: 500 rps for 70% of the run,
// then 1000, 2000 and 4000 rps for 10% each.

const (
	serveModel      = "VFDT (MC)"
	serveDataset    = "SEA"
	serveRowsPerSec = 20000
	serveBatch      = 100
	serveWarm       = 100 // batches learned before the run
	serveConns      = 2
	serveRequests   = 1024 // distinct request rows, cycled
	sweepRows       = 256
)

var serveSteps = []struct {
	rate  float64
	share float64
}{{500, 0.7}, {1000, 0.1}, {2000, 0.1}, {4000, 0.1}}

type serveSingle struct {
	sc      *serve.SnapshotScorer // as built; the server may see it traced
	ps      *server.Server
	ts      *httptest.Server
	tr      *tracer
	trainer *trainer
	rows    [][]float64 // request rows
	bodies  [][]byte    // their JSON bodies
	clients []*http.Client
	seed    int64 // of the arrival times
}

// snapshotScorer builds the scorer dmtserve builds for cfg, which for
// every registered learner is the snapshot scorer.
func snapshotScorer(cfg serve.Config) (*serve.SnapshotScorer, error) {
	sc, err := serve.New(cfg)
	if err != nil {
		return nil, err
	}
	snap, ok := sc.(*serve.SnapshotScorer)
	if !ok {
		return nil, fmt.Errorf("%s is served by %T, want the snapshot scorer", cfg.Model, sc)
	}
	return snap, nil
}

// listen serves sc with the default server.Config on a loopback
// listener. Traced, the server sees sc through a tracedScorer, whose
// restored envelopes go to keep, and the listener runs a tracedHandler;
// the scorer as the server sees it is returned.
func listen(sc serve.Scorer, tr *tracer, keep func([]byte)) (serve.Scorer, *server.Server, *httptest.Server) {
	if tr == nil {
		ps := server.New(sc, server.Config{})
		return sc, ps, httptest.NewServer(ps.Handler())
	}
	th := &tracedHandler{tr: tr}
	ts := &tracedScorer{Scorer: sc, tr: tr, active: &th.active, keep: keep}
	ps := server.New(ts, server.Config{})
	th.h = ps.Handler()
	return ts, ps, httptest.NewServer(th)
}

// connClient is one keep-alive HTTP connection of the load generator.
func connClient() *http.Client {
	return &http.Client{
		Timeout:   10 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
	}
}

func serveSetup(seed int64, d time.Duration, tr *tracer, _ *gauge) (instance, error) {
	n := serveRowsPerSec*int(d.Seconds()) + serveWarm*serveBatch
	schema, data, err := materialise(serveDataset, seed, n)
	if err != nil {
		return nil, err
	}
	_, req, err := materialise(serveDataset, seed+1, serveRequests)
	if err != nil {
		return nil, err
	}
	sc, err := snapshotScorer(serve.Config{Model: serveModel, Schema: schema, Options: modelOptions()})
	if err != nil {
		return nil, err
	}
	s := &serveSingle{sc: sc, tr: tr, rows: req.X, seed: seed}
	for _, x := range req.X {
		body, err := json.Marshal(map[string][]float64{"x": x})
		if err != nil {
			return nil, err
		}
		s.bodies = append(s.bodies, body)
	}
	s.trainer = newTrainer(sc, data, serveBatch, serveRowsPerSec)
	s.trainer.warm(serveWarm)
	s.trainer.learner, s.ps, s.ts = listen(sc, tr, nil)
	for c := 0; c < serveConns; c++ {
		s.clients = append(s.clients, connClient())
		if _, err := s.predict(c, 0); err != nil {
			s.close()
			return nil, fmt.Errorf("warm-up request: %w", err)
		}
	}
	return s, nil
}

func (s *serveSingle) close() {
	s.ts.Close()
	s.ps.Close()
	for _, c := range s.clients {
		c.CloseIdleConnections()
	}
}

// predict sends request row i as one /v1/predict on connection c and
// returns the served class.
func (s *serveSingle) predict(c, i int) (int, error) {
	req, err := http.NewRequest(http.MethodPost, s.ts.URL+"/v1/predict", bytes.NewReader(s.bodies[i%len(s.bodies)]))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	var y int
	err = clientSpan(s.tr, "predict", req, func(req *http.Request) error {
		body, err := do(s.clients[c], req)
		if err != nil {
			return err
		}
		var resp struct {
			Y *int `json:"y"`
		}
		if err := json.Unmarshal(body, &resp); err != nil || resp.Y == nil {
			return fmt.Errorf("bad predict response %q", body)
		}
		y = *resp.Y
		return nil
	})
	if err == nil && (y < 0 || y >= 2) {
		err = fmt.Errorf("predicted class %d outside [0,2)", y)
	}
	return y, err
}

// do sends req and returns the body of a 200 answer.
func do(client *http.Client, req *http.Request) ([]byte, error) {
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return body, nil
}

func (s *serveSingle) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep := newReport()
	batches := serveRowsPerSec * int(d.Seconds()) / serveBatch
	publishes0 := s.sc.Publishes()
	var trainErr error
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		trainErr = s.trainer.run(ctx, batches)
	}()
	var steps []stepResult
	var loadErr error
	for k, st := range serveSteps {
		r, err := runStep(ctx, step{rate: st.rate, dur: time.Duration(st.share * float64(d)), seed: s.seed*10 + int64(k)}, serveConns,
			func(c, i int) error {
				_, err := s.predict(c, i)
				return err
			})
		if err != nil {
			loadErr = err
			break
		}
		steps = append(steps, r)
	}
	<-trained
	if err := errors.Join(trainErr, loadErr); err != nil {
		return nil, err
	}

	for _, st := range steps {
		rep.attempted += int64(st.sent)
		rep.failed += int64(st.failed)
	}
	// Quiesced sweep: with the trainer stopped, every HTTP prediction
	// must equal the scorer's own Predict.
	for i := 0; i < sweepRows; i++ {
		rep.attempted++
		y, err := s.predict(0, i)
		if err != nil {
			rep.fail("sweep request %d: %v", i, err)
		} else if want := s.sc.Predict(s.rows[i%len(s.rows)]); y != want {
			rep.fail("sweep row %d: HTTP predicted %d, Predict gives %d", i, y, want)
		}
	}

	// The latency percentiles are medians over one-second slices of the
	// 500 rps step, so that a host stall of a few seconds moves a few
	// slices and not the reading.
	first := steps[0]
	slices := max(5, int(first.to.Sub(first.from)/time.Second))
	rep.rows = float64(s.trainer.rows)
	rep.e2e["rows_per_s"] = s.trainer.sustained()
	rep.e2e["op_p50_ms"] = slicePercentile(first.latency, first.from, first.to, slices, 50)
	rep.e2e["op_p90_ms"] = slicePercentile(first.latency, first.from, first.to, slices, 90)
	rep.e2e["f1"] = s.trainer.f1.Mean()
	st := s.ps.Status()
	rep.layer["client.predict_p99_ms"] = slicePercentile(first.latency, first.from, first.to, 5, 99)
	rep.layer["loadgen.late_p99_ms"] = lateP99(steps[:1])
	rep.layer["loadgen.backlog_end_ratio"] = ratio(float64(first.backlog), float64(first.scheduled))
	rep.layer["loadgen.max_rps"] = maxRate(steps, latencyLimitMS)
	rep.layer["server.coalesce_rows_per_batch"] = ratio(float64(st.CoalescedRows), float64(st.CoalescedBatches))
	rep.layer["serve.publishes_per_batch"] = ratio(float64(s.sc.Publishes()-publishes0), float64(len(s.trainer.lag)))
	rep.layer["serve.train_lag_p99_ms"] = s.trainer.lagP99()
	rep.layer["serve.structure_changes"] = float64(len(s.trainer.changes))
	return rep, nil
}

// binaryRows encodes rows in the server's application/x-repro-rows
// format: little-endian (rows, cols) uint32 header, then float64 cells.
func binaryRows(rows [][]float64) []byte {
	out := make([]byte, 8, 8+8*len(rows)*len(rows[0]))
	binary.LittleEndian.PutUint32(out, uint32(len(rows)))
	binary.LittleEndian.PutUint32(out[4:], uint32(len(rows[0])))
	for _, r := range rows {
		for _, v := range r {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
		}
	}
	return out
}

// binaryPreds decodes an application/x-repro-preds answer.
func binaryPreds(body []byte) ([]int, error) {
	if len(body) < 4 {
		return nil, fmt.Errorf("short prediction body (%d bytes)", len(body))
	}
	n := int(binary.LittleEndian.Uint32(body))
	if len(body) != 4+4*n {
		return nil, fmt.Errorf("prediction body of %d bytes for %d rows", len(body), n)
	}
	out := make([]int, n)
	for i := range out {
		out[i] = int(int32(binary.LittleEndian.Uint32(body[4+4*i:])))
	}
	return out, nil
}
