package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/persist"
	"repro/internal/serve"
	"repro/internal/server"
)

// fleet-follow is a trainer and one replica on loopback. The trainer
// learns Forest Ens. (ARF) on SEA at 5k rows/s in 100-row batches with
// publish-on-change: about 25 structure changes a second, each a 40-65 KB
// envelope. On Hyperplane the envelope size varied 2.4x across seeds
// (120-290 KB) and moved freshness p50 by 17% from seed to seed; on SEA
// it moved it by 7%. The replica bootstraps with BootstrapRaw and
// follows with a delta-negotiating Follower at the smoke-test settings
// (5 ms interval, 10 s long poll). One connection sends 64-row binary
// /v1/predict_batch to the replica at 50 req/s. At the end the trainer
// stops and the replica must converge to its final version.

const (
	fleetModel      = "Forest Ens."
	fleetDataset    = "SEA"
	fleetRowsPerSec = 5000
	fleetBatch      = 100
	fleetWarm       = 50 // batches learned before the replica bootstraps
	fleetLoadRate   = 50
	fleetLoadRows   = 64
	fleetBodies     = 16
	fleetCheckRows  = 4 * fleetLoadRows
	keepEnvelopes   = 16 // installed envelopes kept for the offline persist timings
	convergeTimeout = 20 * time.Second
)

type fleetFollow struct {
	sc        *serve.SnapshotScorer // trainer, as built
	replica   serve.Scorer          // replica, as built
	trainer   *trainer
	trainerPS *server.Server
	trainerTS *httptest.Server
	replicaPS *server.Server
	replicaTS *httptest.Server
	follower  *server.Follower
	transport *followTransport
	stop      context.CancelFunc // ends the follower
	followed  chan struct{}      // closed when the follower's Run returned
	tr        *tracer
	seed      int64 // of the arrival times

	rows   [][]float64 // probe rows, fleetBodies*fleetLoadRows of them
	bodies [][]byte
	client *http.Client

	mu       sync.Mutex
	installs []install
	kept     [][]byte
}

func fleetSetup(seed int64, d time.Duration, tr *tracer, _ *gauge) (instance, error) {
	n := fleetRowsPerSec*int(d.Seconds()) + fleetWarm*fleetBatch
	schema, data, err := materialise(fleetDataset, seed, n)
	if err != nil {
		return nil, err
	}
	_, probe, err := materialise(fleetDataset, seed+1, fleetBodies*fleetLoadRows)
	if err != nil {
		return nil, err
	}
	sc, err := snapshotScorer(serve.Config{Model: fleetModel, Schema: schema, Options: modelOptions(), PublishOnChange: true})
	if err != nil {
		return nil, err
	}
	f := &fleetFollow{sc: sc, tr: tr, seed: seed, rows: probe.X, client: connClient(), followed: make(chan struct{})}
	for i := 0; i < fleetBodies; i++ {
		f.bodies = append(f.bodies, binaryRows(probe.X[i*fleetLoadRows:(i+1)*fleetLoadRows]))
	}
	f.trainer = newTrainer(sc, data, fleetBatch, fleetRowsPerSec)
	f.trainer.warm(fleetWarm)
	f.trainer.learner, f.trainerPS, f.trainerTS = listen(sc, tr, nil)

	ctx, cancel := context.WithCancel(context.Background())
	f.stop = cancel
	replica, v0, raw0, err := server.BootstrapRaw(ctx, nil, f.trainerTS.URL, 1)
	if err != nil {
		f.close()
		return nil, fmt.Errorf("bootstrap: %w", err)
	}
	f.replica = replica
	var replicaScorer serve.Scorer
	replicaScorer, f.replicaPS, f.replicaTS = listen(replica, tr, f.keep)

	f.transport = &followTransport{base: http.DefaultTransport, tr: tr}
	f.follower = server.NewFollower(f.trainerTS.URL, replicaScorer, server.FollowConfig{
		Interval:  5 * time.Millisecond,
		Wait:      10 * time.Second,
		Transport: f.transport,
		Drainer:   f.replicaPS,
		OnInstall: func(v uint64) {
			at := time.Now()
			f.mu.Lock()
			f.installs = append(f.installs, install{version: v, at: at})
			f.mu.Unlock()
		},
	})
	f.follower.SeedInstalled(v0, raw0)
	go func() {
		defer close(f.followed)
		f.follower.Run(ctx)
	}()
	if _, err := f.predictBatch(0); err != nil {
		f.close()
		return nil, fmt.Errorf("warm-up request: %w", err)
	}
	return f, nil
}

// keep holds the first installed envelopes for the offline persist
// timings.
func (f *fleetFollow) keep(raw []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.kept) < keepEnvelopes {
		f.kept = append(f.kept, raw)
	}
}

func (f *fleetFollow) close() {
	f.stop()
	if f.follower != nil {
		<-f.followed
	}
	// Closing the trainer's server first releases any parked long poll.
	f.trainerPS.Close()
	f.trainerTS.Close()
	if f.replicaTS != nil {
		f.replicaTS.Close()
		f.replicaPS.Close()
	}
	f.client.CloseIdleConnections()
}

// predictBatch sends probe body i to the replica's /v1/predict_batch.
func (f *fleetFollow) predictBatch(i int) ([]int, error) {
	req, err := http.NewRequest(http.MethodPost, f.replicaTS.URL+"/v1/predict_batch", bytes.NewReader(f.bodies[i%len(f.bodies)]))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", server.ContentTypeRows)
	var preds []int
	err = clientSpan(f.tr, "predict_batch", req, func(req *http.Request) error {
		body, err := do(f.client, req)
		if err != nil {
			return err
		}
		preds, err = binaryPreds(body)
		return err
	})
	if err == nil && len(preds) != fleetLoadRows {
		err = fmt.Errorf("%d predictions for %d rows", len(preds), fleetLoadRows)
	}
	return preds, err
}

func (f *fleetFollow) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep := newReport()
	batches := fleetRowsPerSec * int(d.Seconds()) / fleetBatch
	publishes0 := f.sc.Publishes()
	var trainErr error
	trained := make(chan struct{})
	go func() {
		defer close(trained)
		trainErr = f.trainer.run(ctx, batches)
	}()
	load, loadErr := runStep(ctx, step{rate: fleetLoadRate, dur: d, seed: f.seed}, 1, func(_, i int) error {
		_, err := f.predictBatch(i)
		return err
	})
	<-trained
	if err := errors.Join(trainErr, loadErr); err != nil {
		return nil, err
	}
	rep.attempted += int64(load.sent)
	rep.failed += int64(load.failed)

	// Quiesce: the trainer has stopped; the replica must reach its final
	// version.
	final, _ := f.sc.StructureVersion()
	deadline := time.Now().Add(convergeTimeout)
	for {
		if v, ok := f.follower.InstalledVersion(); ok && v >= final {
			break
		}
		if time.Now().After(deadline) {
			rep.fail("replica never converged to trainer version %d: %+v", final, f.follower.Stats())
			break
		}
		time.Sleep(time.Millisecond)
	}
	f.check(rep, final)

	f.mu.Lock()
	installs := append([]install(nil), f.installs...)
	kept := f.kept
	f.mu.Unlock()
	fresh, unmatched := freshness(f.trainer.changes, installs)
	if unmatched > 0 {
		rep.fail("%d of %d trainer versions never reached the replica", unmatched, len(f.trainer.changes))
	}
	fs := f.follower.Stats()
	rep.attempted += int64(fs.Fetches)
	if n := fs.Errors(); n > 0 {
		rep.failed += int64(n)
		fmt.Fprintf(os.Stderr, "dmtperf: follower counted %d errors: %+v\n", n, fs)
	}

	rep.rows = float64(f.trainer.rows)
	rep.e2e["rows_per_s"] = f.trainer.sustained()
	rep.e2e["op_p50_ms"] = percentile(fresh, 50)
	rep.e2e["op_p90_ms"] = percentile(fresh, 90)
	rep.e2e["f1"] = f.trainer.f1.Mean()
	l := rep.layer
	l["loadgen.late_p99_ms"] = lateP99([]stepResult{load})
	l["loadgen.backlog_end_ratio"] = ratio(float64(load.backlog), float64(load.scheduled))
	l["replica.predict_p50_ms"] = percentile(values(load.latency), 50)
	l["replica.predict_p99_ms"] = slicePercentile(load.latency, load.from, load.to, 5, 99)
	l["serve.train_lag_p99_ms"] = f.trainer.lagP99()
	l["serve.structure_changes"] = float64(len(f.trainer.changes))
	l["serve.publishes_per_batch"] = ratio(float64(f.sc.Publishes()-publishes0), float64(len(f.trainer.lag)))
	l["follow.installs"] = float64(fs.Installs)
	l["follow.delta_installs"] = float64(fs.DeltaInstalls)
	l["follow.delta_fallbacks"] = float64(fs.DeltaFallbacks)
	l["follow.errors"] = float64(fs.Errors())
	l["follow.wire_bytes_per_install"] = ratio(float64(f.transport.bytes.Load()), float64(fs.Installs))
	l["server.deltas_served_ratio"] = ratio(float64(f.trainerPS.Status().DeltasServed), float64(f.transport.ok.Load()))
	if f.tr != nil {
		// The server caches captures by version, so each trainer
		// Checkpoint it makes is a capture.
		l["serve.captures_per_change"] = ratio(float64(len(f.tr.byName()["serve.checkpoint"])), float64(len(f.trainer.changes)))
		for k, v := range persistTimings(rep, kept) {
			l[k] = v
		}
	}
	return rep, nil
}

// check verifies convergence: the replica serves the trainer's final
// envelope, its own Checkpoint is byte-identical to that envelope, and
// its HTTP predictions equal those of a scorer built from the envelope.
func (f *fleetFollow) check(rep *report, final uint64) {
	rep.attempted += 3
	raw, v, err := f.trainerPS.Envelope()
	if err != nil {
		rep.fail("trainer envelope: %v", err)
		return
	}
	if got, _ := f.follower.InstalledVersion(); got != v || v != final {
		rep.fail("replica installed version %d, trainer envelope is version %d, trainer final version %d", got, v, final)
	}
	var ckpt bytes.Buffer
	if err := f.replica.Checkpoint(&ckpt); err != nil {
		rep.fail("replica checkpoint: %v", err)
	} else if !bytes.Equal(ckpt.Bytes(), raw) {
		rep.fail("replica checkpoint (%d bytes) differs from the trainer envelope (%d bytes)", ckpt.Len(), len(raw))
	}
	ref, err := serve.FromCheckpoint(bytes.NewReader(raw), 1)
	if err != nil {
		rep.fail("decode trainer envelope: %v", err)
		return
	}
	for i := 0; i < fleetCheckRows/fleetLoadRows; i++ {
		got, err := f.predictBatch(i)
		if err != nil {
			rep.fail("check request %d: %v", i, err)
			continue
		}
		want := ref.PredictBatch(f.rows[i*fleetLoadRows:(i+1)*fleetLoadRows], nil)
		if !slices.Equal(got, want) {
			rep.fail("replica predictions for probe body %d differ from the trainer envelope's", i)
		}
	}
}

// persistTimings re-times the delta path offline on consecutive
// installed envelopes: MakeDelta from each to the next, ApplyChain back,
// and the delta's wire size as a share of the full envelope.
func persistTimings(rep *report, envs [][]byte) map[string]float64 {
	var mk, ap, share []float64
	for i := 1; i < len(envs); i++ {
		start := time.Now()
		dl, err := persist.MakeDelta(envs[i-1], envs[i])
		mk = append(mk, ms(time.Since(start)))
		if err != nil {
			rep.fail("offline MakeDelta %d: %v", i, err)
			continue
		}
		var wire bytes.Buffer
		if err := persist.WriteDelta(&wire, dl); err != nil {
			rep.fail("offline WriteDelta %d: %v", i, err)
			continue
		}
		share = append(share, float64(wire.Len())/float64(len(envs[i])))
		start = time.Now()
		got, err := persist.ApplyChain(envs[i-1], dl)
		ap = append(ap, ms(time.Since(start)))
		if err != nil || !bytes.Equal(got, envs[i]) {
			rep.fail("offline ApplyChain %d does not rebuild the envelope (err %v)", i, err)
		}
	}
	return map[string]float64{
		"persist.make_delta_ms_p50":  median(mk),
		"persist.apply_chain_ms_p50": median(ap),
		"persist.delta_ratio":        median(share),
	}
}
