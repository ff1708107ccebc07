// Serving: lock-free prediction during online learning. A SnapshotScorer
// publishes an immutable model snapshot through an atomic pointer after
// every few Learn calls, so read traffic (Predict/Proba and the batch
// APIs) is wait-free and never stalls behind training — the deployment
// mode the paper targets, an interpretable model that keeps learning
// while it serves. The program trains a DMT on a drifting SEA stream
// while reader goroutines hammer the scorer, then serves
// a model over HTTP from a trainer to a following replica.
package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"repro"
)

func main() {
	gen := repro.NewSEA(60_000, 0.1, 42)

	// Registry-driven serving: build the model by name and wrap it in
	// the lock-free snapshot scorer in one call. The publish cadence
	// trades staleness for clone cost: with 4, reads serve a state at
	// most 3 batches old.
	scorer, err := repro.Serve("DMT", gen.Schema(),
		repro.WithServeModelOptions(repro.WithSeed(42)),
		repro.WithPublishEvery(4))
	if err != nil {
		log.Fatal(err)
	}

	// Wait-free readers: no read ever blocks, even mid-Learn.
	var served atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rows := [][]float64{
				{0.2 * float64(r), 0.5, 0.5},
				{0.9, 0.1, 0.4},
			}
			var preds []int
			proba := make([]float64, gen.Schema().NumClasses)
			for {
				select {
				case <-stop:
					return
				default:
				}
				preds = scorer.PredictBatch(rows, preds) // one consistent snapshot
				proba = scorer.Proba(rows[0], proba)
				served.Add(int64(len(rows)))
			}
		}(r)
	}

	// The learning loop: train on the live stream through the scorer.
	trained := 0
	for {
		batch, err := nextBatch(gen, 100)
		if err != nil {
			break
		}
		scorer.Learn(batch)
		trained += batch.Len()
	}
	close(stop)
	wg.Wait()

	comp := scorer.Complexity()
	fmt.Printf("trained on %d instances while serving %d wait-free predictions\n",
		trained, served.Load())
	fmt.Printf("deployed snapshot: %d inner nodes, %d leaves, depth %d\n",
		comp.Inner, comp.Leaves, comp.Depth)

	networkDemo()
}

// networkDemo is the two-process pattern in one process: a trainer
// serves predictions AND its checkpoint envelope over HTTP while it
// keeps learning; a stateless replica bootstraps from that envelope,
// serves the same model, and follows the trainer so every structural
// advance is installed hot — zero read downtime. In production the two
// halves are separate `dmtserve` processes:
//
//	dmtserve -addr :8080 -model "VFDT (MC)" -dataset SEA   # trainer
//	dmtserve -addr :8081 -follow http://trainer:8080       # replica
func networkDemo() {
	gen := repro.NewSEA(60_000, 0.1, 7)
	trainer, err := repro.Serve("VFDT (MC)", gen.Schema(),
		repro.WithServeModelOptions(repro.WithSeed(7)))
	if err != nil {
		log.Fatal(err)
	}
	// Pre-train so the first envelope already has structure.
	for i := 0; i < 200; i++ {
		b, err := nextBatch(gen, 100)
		if err != nil {
			break
		}
		trainer.Learn(b)
	}

	// The trainer's HTTP side: predictions, hot swap, envelope feed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	ps := repro.NewPredictionServer(trainer, repro.ServerConfig{})
	defer ps.Close()
	hs := &http.Server{Handler: ps.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	trainerURL := "http://" + ln.Addr().String()

	// The replica: no local model, no dataset — everything arrives as
	// envelope bytes over HTTP.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	replica, v0, err := repro.BootstrapScorer(ctx, trainerURL, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica bootstrapped %s at structure version %d over HTTP\n", replica.Name(), v0)

	installs := make(chan uint64, 16)
	go repro.Follow(ctx, trainerURL, replica, repro.FollowConfig{
		Interval:  10 * time.Millisecond,
		Wait:      2 * time.Second,
		OnInstall: func(v uint64) { installs <- v },
	})

	// Replica reads keep flowing while the trainer advances and new
	// envelopes install underneath them.
	var replicaReads atomic.Int64
	readStop := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		row := []float64{5, 5, 5}
		for {
			select {
			case <-readStop:
				return
			default:
				replica.Predict(row)
				replicaReads.Add(1)
			}
		}
	}()

	// Advance the trainer until its structure version moves, then wait
	// for the replica to converge to it.
	for i := 0; i < 400; i++ {
		b, err := nextBatch(gen, 100)
		if err != nil {
			break
		}
		trainer.Learn(b)
		if v, _ := trainer.StructureVersion(); v != v0 {
			break
		}
	}
	vTrainer, _ := trainer.StructureVersion()
	deadline := time.After(10 * time.Second)
	vReplica := v0
	for vReplica == v0 {
		select {
		case vReplica = <-installs:
		case <-deadline:
			log.Fatal("replica never converged")
		}
	}
	close(readStop)
	readWG.Wait()
	fmt.Printf("trainer advanced to version %d; replica installed version %d hot, %d reads served with zero downtime\n",
		vTrainer, vReplica, replicaReads.Load())

	faultToleranceDemo()
}

// faultToleranceDemo shows graceful degradation through a trainer
// outage: a replica follows a trainer through a fault-injecting
// transport whose schedule window stages a total partition. The
// follower's circuit breaker opens (no more hammering a dead trainer),
// the replica keeps serving its last installed snapshot while
// reporting nonzero staleness, and once the window closes the
// half-open probe readmits the trainer and the replica reconverges.
// In production the same wiring is `dmtserve -follow ... -chaos
// 'drop@1'` for drills, minus the chaos for real deployments.
func faultToleranceDemo() {
	gen := repro.NewSEA(60_000, 0.1, 9)
	trainer := repro.MustServe("VFDT (MC)", gen.Schema(),
		repro.WithServeModelOptions(repro.WithSeed(9)))
	for i := 0; i < 200; i++ {
		b, err := nextBatch(gen, 100)
		if err != nil {
			break
		}
		trainer.Learn(b)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	trainerPS := repro.NewPredictionServer(trainer, repro.ServerConfig{})
	defer trainerPS.Close()
	hs := &http.Server{Handler: trainerPS.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	trainerURL := "http://" + ln.Addr().String()

	// Deterministic outage: requests 3..22 to the trainer are dropped
	// on the floor — a 20-request partition, same schedule every run.
	chaos := repro.NewFaultInjector(1, repro.FaultRule{Kind: repro.FaultDrop, P: 1, After: 3, Until: 23})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	replica, _, err := repro.BootstrapScorer(ctx, trainerURL, 1)
	if err != nil {
		log.Fatal(err)
	}
	replicaPS := repro.NewPredictionServer(replica, repro.ServerConfig{})
	defer replicaPS.Close()

	var evMu sync.Mutex
	var breakerEvents []string
	follower := repro.NewFollower(trainerURL, replica, repro.FollowConfig{
		Interval:         10 * time.Millisecond,
		Transport:        chaos.RoundTripper(nil),
		BackoffBase:      5 * time.Millisecond,
		BackoffMax:       50 * time.Millisecond,
		BreakerThreshold: 3,
		BreakerCooldown:  100 * time.Millisecond,
		Drainer:          replicaPS,
		// The callback must not block: it runs inside the breaker's
		// transition path.
		OnStateChange: func(from, to repro.BreakerState) {
			evMu.Lock()
			breakerEvents = append(breakerEvents, fmt.Sprintf("%s -> %s", from, to))
			evMu.Unlock()
		},
	})
	replicaPS.SetStalenessSource(follower)
	go follower.Run(ctx)

	// Reads flow through the whole outage.
	var reads atomic.Int64
	readStop := make(chan struct{})
	var readWG sync.WaitGroup
	readWG.Add(1)
	go func() {
		defer readWG.Done()
		row := []float64{5, 5, 5}
		for {
			select {
			case <-readStop:
				return
			default:
				replica.Predict(row)
				reads.Add(1)
			}
		}
	}()

	// Wait for the partition to trip the breaker, and report what a
	// degraded replica looks like from the outside.
	deadline := time.After(10 * time.Second)
	for follower.State() == repro.BreakerClosed {
		select {
		case <-deadline:
			log.Fatal("breaker never opened")
		case <-time.After(5 * time.Millisecond):
		}
	}
	lag, degraded := follower.Staleness()
	health := replicaPS.Health()
	fmt.Printf("partition: breaker %s, degraded=%v (staleness %v), /healthz live=%v ready=%v degraded=%v — still serving\n",
		follower.State(), degraded, lag.Round(time.Millisecond), health.Live, health.Ready, health.Degraded)

	// The outage window closes after 20 dropped requests; the half-open
	// probe readmits the trainer and the breaker closes again.
	deadline = time.After(20 * time.Second)
	for follower.State() != repro.BreakerClosed {
		select {
		case <-deadline:
			log.Fatal("breaker never closed after the outage window")
		case <-time.After(5 * time.Millisecond):
		}
	}
	close(readStop)
	readWG.Wait()
	st := follower.Stats()
	evMu.Lock()
	first, last := breakerEvents[0], breakerEvents[len(breakerEvents)-1]
	n := len(breakerEvents)
	evMu.Unlock()
	fmt.Printf("healed: %d breaker transitions (%s ... %s), circuit opened %d times; %d reads served across the outage, %d fetch errors absorbed (%d retries)\n",
		n, first, last, st.BreakerOpens, reads.Load(), st.Errors(), st.Retries)

	deltaFollowDemo()
}

// deltaFollowDemo shows the ?since= protocol on the wire: a replica
// seeded with its bootstrap envelope bytes follows the trainer through
// several structural advances installing delta chains instead of full
// envelopes, and after each converged install the demo fetches both
// wire formats for that version step — the delta the follower actually
// transferred vs the full envelope a follower without a delta base
// would have refetched. The reconstruction is CRC-pinned end to end, so the
// delta-converged replica's checkpoint is byte-identical to the
// trainer's envelope. (How much a delta saves depends on how much
// learning happened between the versions it connects: a young VFDT
// churns sufficient statistics in every leaf between splits, so the
// per-step saving here is real but modest; a localized structural
// change in a large model is ~2 KB against a ~480 KB envelope — see
// BenchmarkDeltaBytesOp.)
func deltaFollowDemo() {
	gen := repro.NewSEA(120_000, 0.1, 11)
	trainer := repro.MustServe("VFDT (MC)", gen.Schema(),
		repro.WithServeModelOptions(repro.WithSeed(11)))
	for i := 0; i < 200; i++ {
		b, err := nextBatch(gen, 100)
		if err != nil {
			break
		}
		trainer.Learn(b)
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	trainerPS := repro.NewPredictionServer(trainer, repro.ServerConfig{})
	defer trainerPS.Close()
	hs := &http.Server{Handler: trainerPS.Handler()}
	go hs.Serve(ln)
	defer hs.Close()
	trainerURL := "http://" + ln.Addr().String()

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// The raw bootstrap keeps the envelope bytes: seeding them into the
	// follower is what lets its very first poll negotiate a delta chain.
	replica, v0, raw0, err := repro.BootstrapScorerRaw(ctx, nil, trainerURL, 1)
	if err != nil {
		log.Fatal(err)
	}
	installs := make(chan uint64, 16)
	follower := repro.NewFollower(trainerURL, replica, repro.FollowConfig{
		Interval:  5 * time.Millisecond,
		Wait:      2 * time.Second,
		OnInstall: func(v uint64) { installs <- v },
	})
	follower.SeedInstalled(v0, raw0)
	go follower.Run(ctx)

	// Three structural advances, each converged before the next, so each
	// poll ships exactly the diff for one version step. After each
	// install, fetch that step in both wire formats for the comparison.
	get := func(url string) ([]byte, http.Header) {
		resp, err := http.Get(url)
		if err != nil {
			log.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return body, resp.Header
	}
	cur := v0
	var deltaWire, fullWire int
	var fullBytes []byte
	for step := 0; step < 3; step++ {
		prev := cur
		for i := 0; i < 600; i++ {
			b, err := nextBatch(gen, 100)
			if err != nil {
				break
			}
			trainer.Learn(b)
			if v, _ := trainer.StructureVersion(); v != cur {
				break
			}
		}
		next, _ := trainer.StructureVersion()
		if next == cur {
			break // stream ran dry before another split
		}
		deadline := time.After(10 * time.Second)
		for cur != next {
			select {
			case cur = <-installs:
			case <-deadline:
				log.Fatal("replica never installed the advance")
			}
		}
		fullBytes, _ = get(trainerURL + "/v1/envelope")
		chainBytes, chdr := get(fmt.Sprintf("%s/v1/envelope?since=%d", trainerURL, prev))
		if chdr.Get("Content-Type") != "application/x-repro-delta" {
			log.Fatalf("?since=%d did not answer with a delta chain", prev)
		}
		deltaWire += len(chainBytes)
		fullWire += len(fullBytes)
		fmt.Printf("  step %d→%d: delta %d bytes vs full %d bytes (%.0f%% of a full refetch)\n",
			prev, cur, len(chainBytes), len(fullBytes),
			100*float64(len(chainBytes))/float64(len(fullBytes)))
	}

	st := follower.Stats()
	fmt.Printf("delta follow: %d installs, %d via delta chain (%d fallbacks); %d bytes on the wire vs %d as full envelopes\n",
		st.Installs, st.DeltaInstalls, st.DeltaFallbacks, deltaWire, fullWire)

	// Byte-identical convergence: the replica's own checkpoint is the
	// trainer's envelope, bit for bit.
	var ckpt bytes.Buffer
	if err := replica.Checkpoint(&ckpt); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replica checkpoint == trainer envelope: %v\n", bytes.Equal(ckpt.Bytes(), fullBytes))
}

// nextBatch pulls up to n instances into one batch.
func nextBatch(s repro.Stream, n int) (repro.Batch, error) {
	var b repro.Batch
	for i := 0; i < n; i++ {
		inst, err := s.Next()
		if err != nil {
			if i > 0 {
				return b, nil
			}
			return b, err
		}
		b.X = append(b.X, inst.X)
		b.Y = append(b.Y, inst.Y)
	}
	return b, nil
}
