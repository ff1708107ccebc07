package race_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/eval"
	"repro/internal/persist"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/synth"

	_ "repro/internal/core"
	_ "repro/internal/efdt"
	_ "repro/internal/ensemble"
	_ "repro/internal/fimtdd"
	_ "repro/internal/glm"
	_ "repro/internal/hatada"
	_ "repro/internal/hoeffding"
	_ "repro/internal/nbayes"
)

// driftStream builds a two-concept drifting stream: a linearly
// separable hyperplane regime (where the GLM arm shines) alternating
// with a multi-modal Gaussian-cluster regime (where trees shine), so no
// fixed arm wins the whole stream.
func driftStream(t *testing.T, kind string, samples int, seed int64) *synth.ConceptSwitch {
	t.Helper()
	const features = 5
	linear := synth.NewHyperplane(samples, features, 0.02, seed+1)
	clusters := synth.NewCluster(synth.ClusterConfig{
		Name: "clusters", Samples: samples, Features: features, Classes: 2,
		ClustersPerClass: 3, Std: 0.07, Seed: seed + 2,
	})
	switch kind {
	case "abrupt":
		return synth.NewAbruptSwitch(samples, seed, linear, clusters)
	case "recurring":
		return synth.NewRecurringSwitch(samples, 4, seed, linear, clusters)
	default:
		t.Fatalf("unknown drift kind %q", kind)
		return nil
	}
}

func raceArms() []race.Arm {
	return []race.Arm{{Model: "GLM"}, {Model: "VFDT (MC)"}, {Model: "Naive Bayes"}}
}

func accuracy(t *testing.T, res eval.Result) float64 {
	t.Helper()
	mean, _ := res.MeanStd(func(s eval.IterStats) float64 { return s.Accuracy })
	return mean
}

// TestRacerBeatsEveryFixedArm is the payoff claim: on drifting streams
// (abrupt and recurring concept switches) the racer's prequential
// accuracy is at least every fixed arm's, with at least one
// drift-triggered leader change along the way.
func TestRacerBeatsEveryFixedArm(t *testing.T) {
	for _, kind := range []string{"abrupt", "recurring"} {
		t.Run(kind, func(t *testing.T) {
			const samples = 16_000
			const seed = 7
			opts := eval.Options{BatchFraction: 0.001}

			r, err := race.New(race.Config{
				Schema: driftStream(t, kind, samples, seed).Schema(),
				Arms:   raceArms(),
				Seed:   seed,
			})
			if err != nil {
				t.Fatal(err)
			}
			res, err := eval.Prequential(r, driftStream(t, kind, samples, seed), opts)
			if err != nil {
				t.Fatal(err)
			}
			racerAcc := accuracy(t, res)
			st := r.RaceStatus()
			if st.DriftChanges == 0 {
				t.Errorf("%s: racer saw %d re-races and %d leader changes but no drift-triggered change",
					kind, st.ReRaces, st.LeaderChanges)
			}

			for _, arm := range raceArms() {
				clf, err := registry.New(arm.Model, driftStream(t, kind, samples, seed).Schema(),
					registry.WithSeed(seed*1_000_003+1))
				if err != nil {
					t.Fatal(err)
				}
				armRes, err := eval.Prequential(clf, driftStream(t, kind, samples, seed), opts)
				if err != nil {
					t.Fatal(err)
				}
				armAcc := accuracy(t, armRes)
				t.Logf("%s: racer %.4f vs %s %.4f (leader %s, %d re-races, %d leader changes)",
					kind, racerAcc, arm.Model, armAcc, st.Leader, st.ReRaces, st.LeaderChanges)
				if racerAcc < armAcc {
					t.Errorf("%s: racer accuracy %.4f below fixed arm %s %.4f",
						kind, racerAcc, arm.Model, armAcc)
				}
			}
		})
	}
}

// TestParallelMatchesSequential races the same stream with a sequential
// and an 8-worker pool and requires byte-identical outcomes: every
// prediction, the leader, the scoreboard and the checkpoint bytes.
func TestParallelMatchesSequential(t *testing.T) {
	const samples = 4_000
	build := func(workers int) *race.Racer {
		r, err := race.New(race.Config{
			Schema:  driftStream(t, "abrupt", samples, 11).Schema(),
			Arms:    raceArms(),
			Seed:    11,
			Workers: workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	seq, par := build(1), build(8)
	sSeq := driftStream(t, "abrupt", samples, 11)
	sPar := driftStream(t, "abrupt", samples, 11)
	for {
		bs, errS := stream.NextBatch(sSeq, 64)
		bp, errP := stream.NextBatch(sPar, 64)
		if errors.Is(errS, stream.ErrEnd) {
			if !errors.Is(errP, stream.ErrEnd) {
				t.Fatal("streams ended at different rows")
			}
			break
		}
		if errS != nil || errP != nil {
			t.Fatal(errS, errP)
		}
		seq.Learn(bs)
		par.Learn(bp)
		for i, x := range bs.X {
			if seq.Predict(x) != par.Predict(x) {
				t.Fatalf("prediction diverged at row %d of the batch", i)
			}
		}
	}
	stSeq, stPar := seq.RaceStatus(), par.RaceStatus()
	if stSeq.LeaderIndex != stPar.LeaderIndex || stSeq.ReRaces != stPar.ReRaces ||
		stSeq.LeaderChanges != stPar.LeaderChanges {
		t.Fatalf("scoreboards diverged: %+v vs %+v", stSeq, stPar)
	}
	// The worker count is not model state (it is not persisted), so the
	// two checkpoints must be byte-identical — the strongest form of
	// "parallel arm training matches sequential".
	var ckSeq, ckPar bytes.Buffer
	if err := seq.Checkpoint(&ckSeq); err != nil {
		t.Fatal(err)
	}
	if err := par.Checkpoint(&ckPar); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckSeq.Bytes(), ckPar.Bytes()) {
		t.Fatal("sequential and parallel racer checkpoints are not byte-identical")
	}
}

// TestCheckpointRoundTripMidRace checkpoints a racer mid-race, restores
// it, and requires the original and the restored racer to continue
// byte-identically: same predictions, same leader, same counters, and
// byte-equal subsequent checkpoints.
func TestCheckpointRoundTripMidRace(t *testing.T) {
	const samples = 6_000
	r, err := race.New(race.Config{
		Schema: driftStream(t, "abrupt", samples, 3).Schema(),
		Arms:   raceArms(),
		Seed:   3,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := driftStream(t, "abrupt", samples, 3)
	half := samples / 2
	for fed := 0; fed < half; {
		b, err := stream.NextBatch(s, 50)
		if err != nil {
			t.Fatal(err)
		}
		r.Learn(b)
		fed += b.Len()
	}
	var ck bytes.Buffer
	if err := r.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := race.FromCheckpoint(bytes.NewReader(ck.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if a, b := r.RaceStatus(), restored.RaceStatus(); a.LeaderIndex != b.LeaderIndex ||
		a.Rows != b.Rows || a.ReRaces != b.ReRaces || a.LeaderChanges != b.LeaderChanges {
		t.Fatalf("restored scoreboard differs: %+v vs %+v", a, b)
	}
	if va, oka := r.StructureVersion(); true {
		if vb, okb := restored.StructureVersion(); va != vb || oka != okb {
			t.Fatalf("restored structure version %d/%v differs from %d/%v", vb, okb, va, oka)
		}
	}
	// Continue both over the identical remainder.
	for {
		b, err := stream.NextBatch(s, 50)
		if errors.Is(err, stream.ErrEnd) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		r.Learn(b)
		restored.Learn(b)
		for _, x := range b.X {
			if r.Predict(x) != restored.Predict(x) {
				t.Fatal("restored racer diverged from the original")
			}
			pa := r.Proba(x, nil)
			pb := restored.Proba(x, nil)
			for c := range pa {
				if pa[c] != pb[c] {
					t.Fatal("restored racer probabilities diverged")
				}
			}
		}
	}
	var ckA, ckB bytes.Buffer
	if err := r.Checkpoint(&ckA); err != nil {
		t.Fatal(err)
	}
	if err := restored.Checkpoint(&ckB); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ckA.Bytes(), ckB.Bytes()) {
		t.Fatal("post-continue checkpoints are not byte-identical")
	}
}

// TestDriftTriggersReRace is the drift regression: a concept switch must
// fire the leader's ADWIN, reset the race window and re-run the race.
func TestDriftTriggersReRace(t *testing.T) {
	const samples = 12_000
	r, err := race.New(race.Config{
		Schema: driftStream(t, "abrupt", samples, 19).Schema(),
		Arms:   raceArms(),
		Seed:   19,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Prequential(r, driftStream(t, "abrupt", samples, 19), eval.Options{BatchFraction: 0.001}); err != nil {
		t.Fatal(err)
	}
	st := r.RaceStatus()
	if st.ReRaces == 0 {
		t.Fatalf("no re-race on a concept-switch stream: %+v", st)
	}
	if st.LeaderChanges == 0 {
		t.Fatalf("no leader change on a concept-switch stream: %+v", st)
	}
	// The window reset must show: after a re-race the arms' windows
	// refill from zero, so no arm's window may exceed its capacity.
	for _, a := range st.Arms {
		if a.WindowLen > race.DefaultWindow {
			t.Fatalf("arm %s window %d exceeds capacity %d", a.Model, a.WindowLen, race.DefaultWindow)
		}
	}
}

// TestWarmRestart races two DMT arms (different candidate budgets) with
// warm restart on: after a drift-triggered re-race the trailing
// same-family arm must have been re-seeded from the leader's envelope.
func TestWarmRestart(t *testing.T) {
	const samples = 12_000
	r, err := race.New(race.Config{
		Schema: driftStream(t, "abrupt", samples, 23).Schema(),
		Arms: []race.Arm{
			{Model: "GLM"},
			{Model: "VFDT (MC)"},
			{Model: "VFDT (MC)", Options: []registry.Option{registry.WithGracePeriod(400)}},
		},
		Seed:        23,
		WarmRestart: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eval.Prequential(r, driftStream(t, "abrupt", samples, 23), eval.Options{BatchFraction: 0.001}); err != nil {
		t.Fatal(err)
	}
	st := r.RaceStatus()
	if st.ReRaces == 0 {
		t.Skip("no re-race fired on this stream; warm restart not exercised")
	}
	var restarts uint64
	for _, a := range st.Arms {
		restarts += a.WarmRestarts
	}
	if restarts == 0 {
		t.Logf("scoreboard: %+v", st)
		t.Error("re-races happened but no same-family arm was warm-restarted")
	}
}

// TestLeaderSwapUnderConcurrentReads hammers the racer's read side from
// many goroutines while the training loop drives it through concept
// switches (and so leader swaps). Run with -race this is the wait-free
// leader pointer regression; the assertions keep it meaningful without
// the detector too.
func TestLeaderSwapUnderConcurrentReads(t *testing.T) {
	const samples = 6_000
	r, err := race.New(race.Config{
		Schema: driftStream(t, "recurring", samples, 31).Schema(),
		Arms:   raceArms(),
		Seed:   31,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := driftStream(t, "recurring", samples, 31)
	var stop atomic.Bool
	var served atomic.Uint64
	var failures atomic.Uint64
	var wg sync.WaitGroup
	row := []float64{0.2, 0.4, 0.6, 0.8, 0.5}
	X := [][]float64{row, row, row, row}
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var preds []int
			var probas [][]float64
			for !stop.Load() {
				preds = r.PredictBatch(X, preds)
				probas = r.ProbaBatch(X, probas)
				for i := range preds {
					if preds[i] < 0 || preds[i] > 1 {
						failures.Add(1)
					}
					var sum float64
					for _, p := range probas[i] {
						sum += p
					}
					if math.IsNaN(sum) || sum <= 0 {
						failures.Add(1)
					}
				}
				served.Add(uint64(len(preds)))
			}
		}()
	}
	for {
		b, err := stream.NextBatch(s, 32)
		if errors.Is(err, stream.ErrEnd) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		r.Learn(b)
	}
	// Training can outrun goroutine startup on a fast machine — let the
	// readers serve at least something before stopping them.
	for served.Load() == 0 {
		runtime.Gosched()
	}
	stop.Store(true)
	wg.Wait()
	if failures.Load() != 0 {
		t.Fatalf("%d bad reads during concurrent leader swaps", failures.Load())
	}
	st := r.RaceStatus()
	t.Logf("served %d rows across %d leader changes", served.Load(), st.LeaderChanges)
}

// TestSpecParsing covers the CLI race-spec grammar and alias
// resolution.
func TestSpecParsing(t *testing.T) {
	arms, err := race.ParseSpec("race:dmt, vfdt ,arf")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"DMT", "VFDT", "Forest Ens."}
	for i, a := range arms {
		if a.Model != want[i] {
			t.Fatalf("arm %d resolved to %q, want %q", i, a.Model, want[i])
		}
	}
	if _, err := race.ParseSpec("race:dmt"); err == nil {
		t.Fatal("single-arm spec must fail")
	}
	if _, err := race.ParseSpec("race:dmt,nosuch"); err == nil {
		t.Fatal("unknown arm must fail")
	}
	if race.IsSpec("DMT") {
		t.Fatal("plain model name misdetected as race spec")
	}
}

// TestRestoreValidation feeds corrupt bytes and wrong lineups into
// Restore and requires the racer to stay on its previous state.
func TestRestoreValidation(t *testing.T) {
	schema := driftStream(t, "abrupt", 1000, 1).Schema()
	r, err := race.New(race.Config{Schema: schema, Arms: raceArms(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	before := r.RaceStatus()
	if err := r.Restore(bytes.NewReader([]byte("not a checkpoint"))); err == nil {
		t.Fatal("garbage restore must fail")
	}
	var ck bytes.Buffer
	if err := r.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	// Truncate mid-envelope: the restore must fail atomically.
	if err := r.Restore(bytes.NewReader(ck.Bytes()[:ck.Len()-20])); err == nil {
		t.Fatal("truncated restore must fail")
	}
	other, err := race.New(race.Config{
		Schema: schema,
		Arms:   []race.Arm{{Model: "GLM"}, {Model: "Naive Bayes"}},
		Seed:   1,
	})
	if err != nil {
		t.Fatal(err)
	}
	var ck2 bytes.Buffer
	if err := other.Checkpoint(&ck2); err != nil {
		t.Fatal(err)
	}
	if err := r.Restore(bytes.NewReader(ck2.Bytes())); err == nil {
		t.Fatal("restore with a different lineup must fail")
	}
	after := r.RaceStatus()
	if fmt.Sprintf("%+v", before) != fmt.Sprintf("%+v", after) {
		t.Fatalf("failed restores mutated the racer: %+v vs %+v", before, after)
	}
	// And a valid restore works.
	if err := r.Restore(bytes.NewReader(ck.Bytes())); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointThenEnvelopeStack writes a racer checkpoint and a plain
// envelope onto one stream: Restore must consume exactly the racer's
// bytes, so the envelope stacked behind it still loads.
func TestCheckpointThenEnvelopeStack(t *testing.T) {
	schema := driftStream(t, "abrupt", 1000, 4).Schema()
	r, err := race.New(race.Config{Schema: schema, Arms: raceArms(), Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s := driftStream(t, "abrupt", 1000, 4)
	for i := 0; i < 10; i++ {
		b, err := stream.NextBatch(s, 50)
		if err != nil {
			t.Fatal(err)
		}
		r.Learn(b)
	}
	var stack bytes.Buffer
	if err := r.Checkpoint(&stack); err != nil {
		t.Fatal(err)
	}
	nb, err := registry.New("Naive Bayes", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Save(&stack, nb); err != nil {
		t.Fatal(err)
	}
	src := bytes.NewReader(stack.Bytes())
	if err := r.Restore(src); err != nil {
		t.Fatal(err)
	}
	c, err := persist.Load(src)
	if err != nil {
		t.Fatalf("envelope stacked behind the racer checkpoint: %v", err)
	}
	if c.Name() != "Naive Bayes" || src.Len() != 0 {
		t.Fatalf("loaded %q with %d bytes left", c.Name(), src.Len())
	}
}
