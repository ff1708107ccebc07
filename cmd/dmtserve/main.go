// Command dmtserve runs the network prediction service: one process is
// a trainer (it keeps learning a registered model on a stream while
// serving predictions and publishing checkpoint envelopes), any number
// of others are replicas that follow the trainer's envelope feed and
// serve the same model with zero read downtime across installs.
//
// Trainer (train on SEA while serving on :8080):
//
//	dmtserve -addr :8080 -model "VFDT (MC)" -dataset SEA -scale 0.05
//
// Replica (bootstrap from the trainer, then follow its envelopes):
//
//	dmtserve -addr :8081 -follow http://localhost:8080
//
// Replicas negotiate delta chains by default: each poll asks
// GET /v1/envelope?since=<installed> and applies the structural diffs to
// the envelope bytes it already holds, falling back to a full fetch when
// the trainer has compacted the base or a chain fails validation.
// -no-delta forces full envelopes on every install.
//
// Endpoints on either role: POST /v1/predict, POST /v1/predict_batch,
// POST /v1/swap, GET /v1/envelope, GET /healthz, GET /statusz.
//
// -smoke runs a self-test instead of serving: an in-process trainer, a
// few hundred mixed requests including a hot swap mid-traffic, exit 0
// only if every request succeeded (wired into `make serve-smoke`).
//
// -model also accepts a race lineup, e.g.
//
//	dmtserve -addr :8080 -model 'race:glm,vfdt,nb' -dataset Agrawal
//
// which trains every named arm on the stream and serves each prediction
// from the arm currently winning the windowed prequential race
// (/statusz carries the per-arm scoreboard and leader timeline).
// Combined with -smoke it runs the racing self-test: a race trainer on
// a drifting stream under a prediction hammer must change leaders at
// least once while zero requests fail (wired into `make race-smoke`).
//
// -chaos injects deterministic faults from a seeded spec, e.g.
//
//	dmtserve -addr :8081 -follow http://localhost:8080 \
//	    -chaos 'drop@0.2,reset@0.1,status=503@0.1' -chaos-seed 7
//
// In replica mode the faults hit the client side (every fetch to the
// trainer); in trainer mode they hit the accept path (connections
// dropped, delayed, or cut mid-response). Combined with -smoke it runs
// the chaos self-test: a replica following a trainer through ~30%
// injected faults must converge to the trainer's final envelope version
// while a prediction hammer on the replica tolerates zero errors
// (wired into `make chaos-smoke`).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		modelName = flag.String("model", "VFDT (MC)", "registered model name (trainer mode)")
		dsName    = flag.String("dataset", "SEA", "Table I data set to train on (trainer mode)")
		scale     = flag.Float64("scale", 0.05, "fraction of the Table I stream length")
		seed      = flag.Int64("seed", 42, "random seed")
		batch     = flag.Int("batch", 100, "training batch size in rows")
		publish   = flag.Int("publish", 1, "snapshot publish cadence in batches")
		ckptPath  = flag.String("checkpoint", "", "bootstrap the model from this checkpoint file instead of training fresh")
		follow    = flag.String("follow", "", "replica mode: bootstrap from and follow this trainer URL")
		noDelta   = flag.Bool("no-delta", false, "replica mode: always fetch full envelopes instead of negotiating delta chains")
		interval  = flag.Duration("interval", 500*time.Millisecond, "replica poll interval")
		wait      = flag.Duration("wait", 10*time.Second, "replica long-poll duration (0 = plain polling)")
		window    = flag.Duration("window", time.Millisecond, "longest a /v1/predict batch waits for a single-row request already on its way; an isolated request never waits (negative: never wait)")
		maxBatch  = flag.Int("maxbatch", 64, "max rows per coalesced batch")
		inflight  = flag.Int("inflight", 256, "max in-flight prediction requests before 429")
		smoke     = flag.Bool("smoke", false, "run the self-test and exit")
		chaosSpec = flag.String("chaos", "", "fault-injection spec, e.g. 'drop@0.2,reset@0.1,status=503@0.1,truncate=256@0.1'")
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed (same seed + traffic order = same faults)")
		replicaID = flag.String("id", "", "replica identity announced to the trainer registry (default replica-<pid>)")
		advertise = flag.String("advertise", "", "URL this replica announces for itself (default http://localhost<addr>)")
		heartbeat = flag.Duration("heartbeat", time.Second, "replica registry heartbeat interval")
		regTTL    = flag.Duration("registry-ttl", 3*time.Second, "trainer registry heartbeat TTL")
		maxLag    = flag.Uint64("max-version-lag", 0, "health-gate replicas more than N envelope versions behind (0 = off)")
	)
	flag.Parse()

	cfg := repro.ServerConfig{
		CoalesceWindow: *window,
		MaxBatch:       *maxBatch,
		MaxInFlight:    *inflight,
		Registry:       repro.RegistryConfig{TTL: *regTTL, MaxVersionLag: *maxLag},
	}

	var chaos *repro.FaultInjector
	if *chaosSpec != "" {
		rules, err := repro.ParseFaults(*chaosSpec)
		if err != nil {
			fail(err)
		}
		chaos = repro.NewFaultInjector(*chaosSeed, rules...)
	}

	if *smoke {
		var err error
		var kind string
		switch {
		case chaos != nil:
			kind, err = "chaos ", runChaosSmoke(cfg, chaos)
		case repro.IsRaceSpec(*modelName):
			kind, err = "race ", runRaceSmoke(cfg, *modelName, *seed)
		default:
			kind, err = "", runSmoke(cfg)
		}
		if err != nil {
			fail(err)
		}
		fmt.Printf("dmtserve: %ssmoke test passed\n", kind)
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	if *follow != "" {
		id := *replicaID
		if id == "" {
			id = fmt.Sprintf("replica-%d", os.Getpid())
		}
		adv := *advertise
		if adv == "" {
			adv = "http://localhost" + *addr
		}
		runReplica(ctx, replicaOpts{
			addr: *addr, trainerURL: *follow, id: id, advertise: adv,
			publish: *publish, interval: *interval, wait: *wait,
			heartbeat: *heartbeat, cfg: cfg, chaos: chaos, noDelta: *noDelta,
		})
		return
	}
	runTrainer(ctx, *addr, *modelName, *dsName, *ckptPath, *scale, *seed, *batch, *publish, cfg, chaos)
}

// runTrainer serves while a training loop feeds the scorer; the stream
// is replayed from the start whenever it runs dry, so the process keeps
// learning (and keeps publishing envelopes) for as long as it lives.
func runTrainer(ctx context.Context, addr, modelName, dsName, ckptPath string, scale float64, seed int64, batchSize, publish int, cfg repro.ServerConfig, chaos *repro.FaultInjector) {
	entry, err := repro.DatasetByName(dsName)
	if err != nil {
		fail(err)
	}
	strm := entry.New(scale, seed)

	var scorer repro.Scorer
	if ckptPath != "" {
		f, err := os.Open(ckptPath)
		if err != nil {
			fail(err)
		}
		scorer, err = repro.ScorerFromCheckpoint(f, publish)
		f.Close()
		if err != nil {
			fail(err)
		}
		fmt.Fprintf(os.Stderr, "dmtserve: resumed %s from %s\n", scorer.Name(), ckptPath)
	} else {
		scorer, err = repro.Serve(modelName, strm.Schema(),
			repro.WithPublishEvery(publish),
			repro.WithServeModelOptions(repro.WithSeed(seed)))
		if err != nil {
			// The registry error already lists the registered names; add
			// the lineup grammar so a near-miss like -model race finds it.
			fail(fmt.Errorf("-model %q: %w (a race lineup also works: -model 'race:dmt,vfdt,arf')", modelName, err))
		}
	}

	go func() {
		rows := 0
		for ctx.Err() == nil {
			b, err := repro.NextBatchContext(ctx, strm, batchSize)
			if errors.Is(err, repro.ErrEndOfStream) {
				strm.Reset()
				continue
			}
			if err != nil {
				return
			}
			scorer.Learn(b)
			rows += b.Len()
			if rows%100000 < batchSize {
				v, _ := scorer.StructureVersion()
				fmt.Fprintf(os.Stderr, "dmtserve: trained %d rows, structure version %d\n", rows, v)
			}
		}
	}()

	fmt.Fprintf(os.Stderr, "dmtserve: trainer serving %s on %s (dataset %s)\n", scorer.Name(), addr, dsName)
	ps := repro.NewPredictionServer(scorer, cfg)
	defer ps.Close()
	var ln net.Listener
	if chaos != nil {
		// Trainer-side chaos faults the accept path: connections are
		// dropped, delayed, or cut mid-response before any handler
		// runs — what replicas see when the trainer's host misbehaves.
		raw, err := net.Listen("tcp", addr)
		if err != nil {
			fail(err)
		}
		ln = chaos.Listener(raw)
		fmt.Fprintf(os.Stderr, "dmtserve: trainer listener under chaos: %s\n", chaos)
	}
	if err := repro.ServePrediction(ctx, addr, ps, ln); err != nil && !errors.Is(err, context.Canceled) {
		fail(err)
	}
}

type replicaOpts struct {
	addr       string
	trainerURL string
	id         string
	advertise  string
	publish    int
	interval   time.Duration
	wait       time.Duration
	heartbeat  time.Duration
	cfg        repro.ServerConfig
	chaos      *repro.FaultInjector
	noDelta    bool
}

// runReplica bootstraps a scorer from the trainer's envelope, serves
// it, and follows the trainer so every structural advance is installed
// with zero read downtime. The follow loop is the resilient client:
// backoff with jitter, a circuit breaker against a down trainer,
// per-cause error counters surfaced in the logs, drain-on-install
// readiness, staleness stamping, and registry heartbeats so the
// trainer's /v1/replicas health-gates this replica.
func runReplica(ctx context.Context, o replicaOpts) {
	var transport http.RoundTripper
	if o.chaos != nil {
		transport = o.chaos.RoundTripper(nil)
		fmt.Fprintf(os.Stderr, "dmtserve: replica client under chaos: %s\n", o.chaos)
	}
	client := &http.Client{Timeout: o.wait + 30*time.Second, Transport: transport}

	// Bootstrap with retries: a trainer mid-restart (or injected chaos)
	// must not kill a replica before it ever serves. The raw bootstrap
	// bytes seed the follower's delta base, so its first poll can already
	// answer with a chain instead of a full envelope.
	var scorer repro.Scorer
	var v uint64
	var bootRaw []byte
	for attempt := 0; ; attempt++ {
		var err error
		scorer, v, bootRaw, err = repro.BootstrapScorerRaw(ctx, client, o.trainerURL, o.publish)
		if err == nil {
			break
		}
		if ctx.Err() != nil || attempt >= 9 {
			fail(fmt.Errorf("bootstrap from %s: %w", o.trainerURL, err))
		}
		delay := time.Duration(attempt+1) * 500 * time.Millisecond
		fmt.Fprintf(os.Stderr, "dmtserve: bootstrap attempt %d failed (%v), retrying in %v\n", attempt+1, err, delay)
		select {
		case <-ctx.Done():
			fail(ctx.Err())
		case <-time.After(delay):
		}
	}
	fmt.Fprintf(os.Stderr, "dmtserve: replica bootstrapped %s at version %d from %s\n", scorer.Name(), v, o.trainerURL)

	ps := repro.NewPredictionServer(scorer, o.cfg)
	defer ps.Close()
	f := repro.NewFollower(o.trainerURL, scorer, repro.FollowConfig{
		Interval:  o.interval,
		Wait:      o.wait,
		Transport: transport,
		NoDelta:   o.noDelta,
		Drainer:   ps, // not-ready while an envelope installs
		OnInstall: func(v uint64) {
			fmt.Fprintf(os.Stderr, "dmtserve: installed envelope at version %d\n", v)
		},
		OnError: func(cause repro.FollowCause, err error) {
			fmt.Fprintf(os.Stderr, "dmtserve: follow %s error: %v\n", cause, err)
		},
		OnStateChange: func(from, to repro.BreakerState) {
			fmt.Fprintf(os.Stderr, "dmtserve: trainer breaker %s -> %s\n", from, to)
		},
	})
	ps.SetStalenessSource(f) // degraded responses carry X-Repro-Staleness
	if !o.noDelta {
		f.SeedInstalled(v, bootRaw)
	}
	go f.Run(ctx)
	go repro.RunHeartbeats(ctx, nil, o.trainerURL, o.heartbeat, func() repro.ReplicaAnnounce {
		iv, hasV := f.InstalledVersion()
		return repro.ReplicaAnnounce{
			ID: o.id, URL: o.advertise,
			Version: iv, HasVersion: hasV,
			Ready: ps.Ready(),
		}
	})

	fmt.Fprintf(os.Stderr, "dmtserve: replica %s serving %s on %s\n", o.id, scorer.Name(), o.addr)
	if err := repro.ServePrediction(ctx, o.addr, ps, nil); err != nil && !errors.Is(err, context.Canceled) {
		fail(err)
	}
	st := f.Stats()
	fmt.Fprintf(os.Stderr, "dmtserve: follow stats: %d fetches, %d installs (%d via delta, %d delta fallbacks), %d retries, errors dial=%d timeout=%d status=%d decode=%d restore=%d, breaker opened %d times\n",
		st.Fetches, st.Installs, st.DeltaInstalls, st.DeltaFallbacks, st.Retries, st.DialErrors, st.TimeoutErrors, st.StatusErrors, st.DecodeErrors, st.RestoreErrors, st.BreakerOpens)
}

// runSmoke is the CI self-test: an in-process trainer under live
// training, a few hundred mixed requests across both endpoints and
// both wire formats, one hot swap mid-traffic, zero tolerated errors.
func runSmoke(cfg repro.ServerConfig) error {
	entry, err := repro.DatasetByName("SEA")
	if err != nil {
		return err
	}
	strm := entry.New(0.05, 1)
	scorer, err := repro.Serve("VFDT (MC)", strm.Schema(), repro.WithServeModelOptions(repro.WithSeed(1)))
	if err != nil {
		return err
	}
	// Warm the model so the swap envelope below has structure in it.
	for i := 0; i < 100; i++ {
		b, err := repro.NextBatch(strm, 100)
		if errors.Is(err, repro.ErrEndOfStream) {
			strm.Reset()
			continue
		}
		if err != nil {
			return err
		}
		scorer.Learn(b)
	}
	var env bytes.Buffer
	if err := scorer.Checkpoint(&env); err != nil {
		return err
	}

	ps := repro.NewPredictionServer(scorer, cfg)
	defer ps.Close()
	ts := httptest.NewServer(ps.Handler())
	defer ts.Close()

	// Keep training while the traffic runs.
	trainCtx, stopTraining := context.WithCancel(context.Background())
	defer stopTraining()
	go func() {
		for trainCtx.Err() == nil {
			b, err := repro.NextBatchContext(trainCtx, strm, 100)
			if errors.Is(err, repro.ErrEndOfStream) {
				strm.Reset()
				continue
			}
			if err != nil {
				return
			}
			scorer.Learn(b)
		}
	}()

	probe, err := repro.NextBatch(strm, 32)
	if err != nil {
		return err
	}
	const (
		workers  = 8
		requests = 400
	)
	var failures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < requests/workers; i++ {
				var resp *http.Response
				var err error
				if i%2 == 0 {
					body, _ := json.Marshal(map[string]any{"x": probe.X[(w+i)%len(probe.X)]})
					resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				} else {
					body, _ := json.Marshal(map[string]any{"rows": probe.X})
					resp, err = http.Post(ts.URL+"/v1/predict_batch", "application/json", bytes.NewReader(body))
				}
				if err != nil {
					failures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(w)
	}

	// One hot swap in the middle of the traffic.
	time.Sleep(20 * time.Millisecond)
	resp, err := http.Post(ts.URL+"/v1/swap", "application/x-repro-envelope", bytes.NewReader(env.Bytes()))
	if err != nil {
		return fmt.Errorf("hot swap: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("hot swap answered %s", resp.Status)
	}
	wg.Wait()
	stopTraining()

	if n := failures.Load(); n != 0 {
		return fmt.Errorf("%d of %d requests failed", n, requests)
	}

	// The status page must reflect the traffic and the swap.
	resp, err = http.Get(ts.URL + "/statusz")
	if err != nil {
		return err
	}
	var st repro.ServerStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if st.Swaps != 1 {
		return fmt.Errorf("statusz reports %d swaps, want 1", st.Swaps)
	}
	if st.ServedRows == 0 {
		return fmt.Errorf("statusz reports no served rows after %d requests", requests)
	}
	fmt.Fprintf(os.Stderr, "dmtserve: smoke served %d rows in %d coalesced batches (%d waited), %d rejected, 1 swap\n",
		st.ServedRows, st.CoalescedBatches, st.CoalesceWaits, st.Rejected)
	return nil
}

// runChaosSmoke is the fault-tolerance self-test: a replica follows an
// in-process trainer through the injected fault spec, a prediction
// hammer runs against the replica with zero tolerated errors, and the
// run only passes if faults actually fired, the breaker machinery saw
// them, and the replica converged to the trainer's final envelope
// version.
func runChaosSmoke(cfg repro.ServerConfig, chaos *repro.FaultInjector) error {
	entry, err := repro.DatasetByName("SEA")
	if err != nil {
		return err
	}
	strm := entry.New(0.05, 1)
	trainer, err := repro.Serve("VFDT (MC)", strm.Schema(), repro.WithServeModelOptions(repro.WithSeed(1)))
	if err != nil {
		return err
	}
	learn := func(batches int) error {
		for i := 0; i < batches; i++ {
			b, err := repro.NextBatch(strm, 100)
			if errors.Is(err, repro.ErrEndOfStream) {
				strm.Reset()
				continue
			}
			if err != nil {
				return err
			}
			trainer.Learn(b)
		}
		return nil
	}
	if err := learn(100); err != nil {
		return err
	}

	trainerPS := repro.NewPredictionServer(trainer, cfg)
	defer trainerPS.Close()
	trainerTS := httptest.NewServer(trainerPS.Handler())
	defer trainerTS.Close()

	// Every replica-side request runs through the injector.
	transport := chaos.RoundTripper(nil)
	client := &http.Client{Timeout: 5 * time.Second, Transport: transport}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	var replica repro.Scorer
	var bootV uint64
	var bootRaw []byte
	for attempt := 0; ; attempt++ {
		var err error
		replica, bootV, bootRaw, err = repro.BootstrapScorerRaw(ctx, client, trainerTS.URL, 1)
		if err == nil {
			break
		}
		if attempt >= 50 {
			return fmt.Errorf("bootstrap never survived the chaos: %w", err)
		}
		time.Sleep(10 * time.Millisecond)
	}

	replicaPS := repro.NewPredictionServer(replica, cfg)
	defer replicaPS.Close()
	f := repro.NewFollower(trainerTS.URL, replica, repro.FollowConfig{
		Interval:         5 * time.Millisecond,
		Timeout:          5 * time.Second,
		Transport:        transport,
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       100 * time.Millisecond,
		BreakerThreshold: 5,
		BreakerCooldown:  100 * time.Millisecond,
		Drainer:          replicaPS,
	})
	replicaPS.SetStalenessSource(f)
	// Seed the delta base from the bootstrap envelope: the follow loop
	// under chaos then exercises the delta path too — chains that arrive
	// intact install incrementally, corrupted ones fall back to full.
	f.SeedInstalled(bootV, bootRaw)
	followCtx, stopFollow := context.WithCancel(ctx)
	defer stopFollow()
	followDone := make(chan struct{})
	go func() { defer close(followDone); f.Run(followCtx) }()
	replicaTS := httptest.NewServer(replicaPS.Handler())
	defer replicaTS.Close()

	// Hammer the replica while the trainer advances under chaos: zero
	// tolerated prediction errors — fault tolerance means degraded,
	// never down.
	probe, err := repro.NextBatch(strm, 16)
	if err != nil {
		return err
	}
	hammerStop := make(chan struct{})
	var reads, readFailures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-hammerStop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{"x": probe.X[(w+i)%len(probe.X)]})
				resp, err := http.Post(replicaTS.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					readFailures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					readFailures.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				reads.Add(1)
			}
		}(w)
	}

	// Keep training so envelope versions move while faults fire, then
	// freeze the trainer and require convergence to its final version.
	if err := learn(200); err != nil {
		return err
	}
	// Let chaos traffic accumulate until every rule has had real
	// chances to fire. Time-bounded: an injected 429 carries a 1s
	// Retry-After that the follower honours, throttling the poll loop
	// to ~1 request/second while the storm lasts.
	trafficDeadline := time.Now().Add(20 * time.Second)
	for chaos.Seen() < 120 && time.Now().Before(trafficDeadline) {
		time.Sleep(10 * time.Millisecond)
	}
	finalV, _ := trainer.StructureVersion()
	deadline := time.Now().Add(60 * time.Second)
	for {
		if v, ok := f.InstalledVersion(); ok && v == finalV {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replica never converged to trainer version %d: %+v", finalV, f.Stats())
		}
		time.Sleep(5 * time.Millisecond)
	}
	close(hammerStop)
	wg.Wait()
	stopFollow()
	<-followDone

	st := f.Stats()
	if n := readFailures.Load(); n != 0 {
		return fmt.Errorf("%d of %d replica reads failed under chaos", n, reads.Load())
	}
	if reads.Load() == 0 {
		return fmt.Errorf("prediction hammer never ran")
	}
	if chaos.InjectedTotal() == 0 {
		return fmt.Errorf("no faults fired (%d requests seen) — the smoke proved nothing", chaos.Seen())
	}
	if st.Errors() == 0 {
		return fmt.Errorf("faults fired but the follower counted no errors: %+v", st)
	}
	// The follower is delta-seeded, so every install attempt starts as a
	// ?since= negotiation: any install at all must show up as a delta
	// install or a counted fallback to full.
	if st.Installs > 0 && st.DeltaInstalls+st.DeltaFallbacks == 0 {
		return fmt.Errorf("installs happened but the delta path never engaged: %+v", st)
	}
	fmt.Fprintf(os.Stderr, "dmtserve: chaos smoke: %d faults over %d requests (%s), %d reads ok, converged at version %d; %d installs (%d via delta, %d delta fallbacks); follow errors dial=%d timeout=%d status=%d decode=%d restore=%d, %d breaker opens\n",
		chaos.InjectedTotal(), chaos.Seen(), chaos, reads.Load(), finalV,
		st.Installs, st.DeltaInstalls, st.DeltaFallbacks,
		st.DialErrors, st.TimeoutErrors, st.StatusErrors, st.DecodeErrors, st.RestoreErrors, st.BreakerOpens)
	return nil
}

// runRaceSmoke is the model-racing self-test: a race trainer (the
// lineup from -model) learns a drifting stream — a linearly separable
// hyperplane regime alternating with a Gaussian-cluster regime, so no
// single arm wins throughout — while a prediction hammer runs against
// it. The run passes only if zero requests failed, the leader changed
// at least once, and /statusz carries the per-arm race scoreboard
// (wired into `make race-smoke`).
func runRaceSmoke(cfg repro.ServerConfig, spec string, seed int64) error {
	const (
		samples  = 24_000
		segments = 4
		features = 5
	)
	linear := repro.NewHyperplane(samples, features, 0.02, seed+1)
	clusters := repro.NewClusterStream(repro.ClusterConfig{
		Name: "clusters", Samples: samples, Features: features, Classes: 2,
		ClustersPerClass: 3, Std: 0.07, Seed: seed + 2,
	})
	strm := repro.NewRecurringSwitch(samples, segments, seed, linear, clusters)

	scorer, err := repro.Serve(spec, strm.Schema(), repro.WithServeModelOptions(repro.WithSeed(seed)))
	if err != nil {
		return err
	}

	ps := repro.NewPredictionServer(scorer, cfg)
	defer ps.Close()
	ts := httptest.NewServer(ps.Handler())
	defer ts.Close()

	probe, err := repro.NextBatch(strm, 32)
	if err != nil {
		return err
	}
	scorer.Learn(probe)

	// Hammer the racer while it trains through every drift: leader swaps
	// must never surface as request errors.
	hammerStop := make(chan struct{})
	var reads, readFailures atomic.Uint64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-hammerStop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]any{"x": probe.X[(w+i)%len(probe.X)]})
				resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(body))
				if err != nil {
					readFailures.Add(1)
					continue
				}
				if resp.StatusCode != http.StatusOK {
					readFailures.Add(1)
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				reads.Add(1)
			}
		}(w)
	}

	for {
		b, err := repro.NextBatch(strm, 100)
		if errors.Is(err, repro.ErrEndOfStream) {
			break
		}
		if err != nil {
			close(hammerStop)
			wg.Wait()
			return err
		}
		scorer.Learn(b)
	}
	// Training can outrun the HTTP hammer; keep serving until the hammer
	// has produced a meaningful request count (time-bounded).
	deadline := time.Now().Add(10 * time.Second)
	for reads.Load() < 400 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	close(hammerStop)
	wg.Wait()

	if n := readFailures.Load(); n != 0 {
		return fmt.Errorf("%d of %d predictions failed during the race", n, reads.Load())
	}
	if reads.Load() == 0 {
		return fmt.Errorf("prediction hammer never ran")
	}

	resp, err := http.Get(ts.URL + "/statusz")
	if err != nil {
		return err
	}
	var st repro.ServerStatus
	err = json.NewDecoder(resp.Body).Decode(&st)
	resp.Body.Close()
	if err != nil {
		return err
	}
	if st.Race == nil {
		return fmt.Errorf("statusz carries no race scoreboard for %s", scorer.Name())
	}
	if len(st.Race.Arms) < 2 {
		return fmt.Errorf("race scoreboard lists %d arms, want >= 2", len(st.Race.Arms))
	}
	if st.Race.LeaderChanges == 0 {
		return fmt.Errorf("leader never changed across %d rows and %d re-races — the race proved nothing", st.Race.Rows, st.Race.ReRaces)
	}
	if st.ServedRows == 0 {
		return fmt.Errorf("statusz reports no served rows after %d requests", reads.Load())
	}
	fmt.Fprintf(os.Stderr, "dmtserve: race smoke: %s served %d reads over %d rows, %d re-races, %d leader changes (%d drift-triggered), final leader %s\n",
		scorer.Name(), reads.Load(), st.Race.Rows, st.Race.ReRaces, st.Race.LeaderChanges, st.Race.DriftChanges, st.Race.Leader)
	return nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dmtserve:", err)
	os.Exit(1)
}
