package repro

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// collectBatches materialises n batches of the given size from a stream.
func collectBatches(t *testing.T, s Stream, n, size int) []Batch {
	t.Helper()
	var out []Batch
	for i := 0; i < n; i++ {
		var b Batch
		for j := 0; j < size; j++ {
			inst, err := s.Next()
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			b.X = append(b.X, inst.X)
			b.Y = append(b.Y, inst.Y)
		}
		out = append(out, b)
	}
	return out
}

// sameProba reports bit-exact equality of two probability vectors.
func sameProba(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k] != b[k] && !(math.IsNaN(a[k]) && math.IsNaN(b[k])) {
			return false
		}
	}
	return true
}

// assertByteIdenticalContinue trains control and subject on the first
// half of the batches, round-trips subject through Save/Load, continues
// both on the second half, and requires bit-exact predictions,
// probabilities and complexity — the core acceptance criterion: a
// save → load → continue run must be indistinguishable from one that
// never stopped.
func assertByteIdenticalContinue(t *testing.T, name string, schema Schema, batches []Batch) {
	t.Helper()
	control := MustNew(name, schema, WithSeed(7))
	subject := MustNew(name, schema, WithSeed(7))
	half := len(batches) / 2
	for i := 0; i < half; i++ {
		control.Learn(batches[i])
		subject.Learn(batches[i])
	}
	var buf bytes.Buffer
	if err := Save(&buf, subject); err != nil {
		t.Fatalf("Save(%s): %v", name, err)
	}
	restored, err := Load(&buf)
	if err != nil {
		t.Fatalf("Load(%s): %v", name, err)
	}
	if restored.Name() != subject.Name() {
		t.Fatalf("restored model named %q, want %q", restored.Name(), subject.Name())
	}
	for i := half; i < len(batches); i++ {
		control.Learn(batches[i])
		restored.Learn(batches[i])
	}
	if control.Complexity() != restored.Complexity() {
		t.Fatalf("%s: complexity diverged after resume: %+v vs %+v", name, control.Complexity(), restored.Complexity())
	}
	cp, cOK := control.(ProbabilisticClassifier)
	rp, rOK := restored.(ProbabilisticClassifier)
	if cOK != rOK {
		t.Fatalf("%s: probabilistic interface lost in round trip", name)
	}
	for bi, b := range batches {
		for ri, x := range b.X {
			if control.Predict(x) != restored.Predict(x) {
				t.Fatalf("%s: prediction diverged after resume (batch %d row %d)", name, bi, ri)
			}
			if cOK && !sameProba(cp.Proba(x, nil), rp.Proba(x, nil)) {
				t.Fatalf("%s: probabilities diverged after resume (batch %d row %d)", name, bi, ri)
			}
		}
	}
}

// TestCheckpointRoundTripAllModels is the registry-wide acceptance
// test: every registered model reconstructs from its envelope alone and
// continues byte-identically.
func TestCheckpointRoundTripAllModels(t *testing.T) {
	gen := NewSEA(200_000, 0.1, 42)
	schema := gen.Schema()
	batches := collectBatches(t, gen, 40, 64)
	for _, name := range Models() {
		name := name
		t.Run(name, func(t *testing.T) {
			assertByteIdenticalContinue(t, name, schema, batches)
		})
	}
}

// TestCheckpointRoundTripMulticlass covers the multinomial (Softmax)
// simple models and multiclass Naive Bayes paths on a 4-class stream.
func TestCheckpointRoundTripMulticlass(t *testing.T) {
	gen := NewClusterStream(ClusterConfig{
		Name: "ckpt4", Samples: 200_000, Features: 5, Classes: 4,
		Priors: MajorityPriors(4, 0.4), Seed: 11,
	})
	schema := gen.Schema()
	batches := collectBatches(t, gen, 30, 64)
	for _, name := range []string{"DMT", "GLM", "Naive Bayes", "VFDT (NBA)", "FIMT-DD", "Forest Ens."} {
		name := name
		t.Run(name, func(t *testing.T) {
			assertByteIdenticalContinue(t, name, schema, batches)
		})
	}
}

// TestLoadRejectsDamagedEnvelopes covers the corruption matrix:
// truncation at every boundary, payload bit-flips (checksum), and
// garbage input.
func TestLoadRejectsDamagedEnvelopes(t *testing.T) {
	gen := NewSEA(50_000, 0.1, 42)
	clf := MustNew("DMT", gen.Schema(), WithSeed(3))
	batches := collectBatches(t, gen, 10, 64)
	for _, b := range batches {
		clf.Learn(b)
	}
	var buf bytes.Buffer
	if err := Save(&buf, clf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	if _, err := Load(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Load(bytes.NewReader([]byte("garbage that is clearly not an envelope"))); err == nil {
		t.Fatal("garbage accepted")
	}
	// Truncation at every prefix boundary class: inside the magic,
	// inside the header, inside the payload.
	for _, cut := range []int{3, 10, len(raw) / 2, len(raw) - 1} {
		if cut >= len(raw) {
			continue
		}
		if _, err := Load(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("truncated envelope (%d of %d bytes) accepted", cut, len(raw))
		}
	}
	// A flipped payload byte must fail the checksum.
	corrupt := append([]byte(nil), raw...)
	corrupt[len(corrupt)-10] ^= 0x40
	if _, err := Load(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt payload accepted")
	}
}

// TestScorerCheckpointRestore verifies the serving layer round trip for
// both scorer implementations: a restored scorer serves and keeps
// learning byte-identically to the one that was checkpointed.
func TestScorerCheckpointRestore(t *testing.T) {
	gen := NewSEA(200_000, 0.1, 42)
	schema := gen.Schema()
	batches := collectBatches(t, gen, 30, 64)
	cases := []struct {
		name string
		mk   func() Scorer
	}{
		{"snapshot", func() Scorer { return MustServe("DMT", schema, WithServeModelOptions(WithSeed(5))) }},
		{"locked", func() Scorer { return NewScorer(MustNew("DMT", schema, WithSeed(5))) }},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mk := tc.mk
			orig := mk()
			for i := 0; i < 15; i++ {
				orig.Learn(batches[i])
			}
			var buf bytes.Buffer
			if err := orig.Checkpoint(&buf); err != nil {
				t.Fatalf("Checkpoint: %v", err)
			}
			restored := mk()
			if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatalf("Restore: %v", err)
			}
			for i := 15; i < 30; i++ {
				orig.Learn(batches[i])
				restored.Learn(batches[i])
			}
			if orig.Complexity() != restored.Complexity() {
				t.Fatalf("complexity diverged: %+v vs %+v", orig.Complexity(), restored.Complexity())
			}
			var pa, pb []int
			for _, b := range batches {
				pa = orig.PredictBatch(b.X, pa)
				pb = restored.PredictBatch(b.X, pb)
				for i := range pa {
					if pa[i] != pb[i] {
						t.Fatal("restored scorer diverged from original")
					}
				}
			}
		})
	}
}

// TestRunnerResume simulates a kill after part of a grid completed and
// checks the resumed run reproduces the uninterrupted result matrix:
// loaded cells verbatim (every field, timings included) and re-run
// cells byte-identically in all deterministic metrics.
func TestRunnerResume(t *testing.T) {
	dir := t.TempDir()
	cells := func() []Cell {
		var out []Cell
		for _, ds := range []string{"SEA", "Hyperplane"} {
			entry, err := DatasetByName(ds)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range []string{"DMT", "GLM"} {
				out = append(out, Cell{Dataset: entry, Model: m, Seed: CellSeed(42, ds, m)})
			}
		}
		return out
	}

	base := Runner{Workers: 2, Scale: 0.004, MinBatchSize: 32}

	// The uninterrupted reference run.
	uninterrupted, err := base.Run(context.Background(), cells())
	if err != nil {
		t.Fatal(err)
	}

	// Simulated kill: only half the cells complete, checkpointed.
	killed := base
	killed.CheckpointDir = dir
	if _, err := killed.Run(context.Background(), cells()[:2]); err != nil {
		t.Fatal(err)
	}

	// Resume the full grid: the two completed cells load from disk, the
	// other two run fresh.
	resumed := base
	resumed.CheckpointDir = dir
	resumed.Resume = true
	var progress bytes.Buffer
	resumed.Progress = &progress
	got, err := resumed.Run(context.Background(), cells())
	if err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(progress.Bytes(), []byte("resumed:")); n != 2 {
		t.Fatalf("expected 2 resumed cells, progress log shows %d:\n%s", n, progress.String())
	}

	for ds, models := range uninterrupted.Results {
		for m, want := range models {
			have, ok := got.Results[ds][m]
			if !ok {
				t.Fatalf("cell %s/%s missing after resume", ds, m)
			}
			if len(have.Iters) != len(want.Iters) {
				t.Fatalf("cell %s/%s: %d iters after resume, want %d", ds, m, len(have.Iters), len(want.Iters))
			}
			for i := range want.Iters {
				a, b := want.Iters[i], have.Iters[i]
				// Seconds is wall clock — the only field that may differ
				// between two executions of the same deterministic cell.
				a.Seconds, b.Seconds = 0, 0
				if a != b {
					t.Fatalf("cell %s/%s iter %d diverged after resume: %+v vs %+v", ds, m, i, want.Iters[i], have.Iters[i])
				}
			}
		}
	}

	// Stale checkpoints from a different configuration must be ignored.
	stale := base
	stale.Scale = 0.008
	stale.CheckpointDir = dir
	stale.Resume = true
	var staleProgress bytes.Buffer
	stale.Progress = &staleProgress
	if _, err := stale.Run(context.Background(), cells()[:1]); err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(staleProgress.Bytes(), []byte("resumed:")) {
		t.Fatalf("stale checkpoint (different scale) was resumed:\n%s", staleProgress.String())
	}

	// Cell files must survive inspection as real files (atomic rename).
	matches, err := filepath.Glob(filepath.Join(dir, "*.cell"))
	if err != nil || len(matches) == 0 {
		t.Fatalf("no cell files written: %v", err)
	}
	for _, f := range matches {
		if info, err := os.Stat(f); err != nil || info.Size() == 0 {
			t.Fatalf("cell file %s unreadable or empty", f)
		}
	}
}
