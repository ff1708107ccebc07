package serve

import (
	"testing"

	"repro/internal/model"
	"repro/internal/stream"
	"repro/internal/synth"
)

// metaScorers builds one scorer of each implementation over a VFDT (the
// SEA concept makes it split, so the structure version moves).
func metaScorers(t *testing.T) map[string]Scorer {
	t.Helper()
	locked, snap := lockedAndSnapshot(t, "VFDT (MC)", synth.NewSEA(100, 0.1, 1).Schema(), 0)
	return map[string]Scorer{"locked": locked, "snapshot": snap}
}

// trainSome feeds a few SEA batches through the scorer.
func trainSome(t *testing.T, s Scorer, seed int64, batches int) {
	t.Helper()
	gen := synth.NewSEA(batches*100, 0.1, seed)
	for i := 0; i < batches; i++ {
		b, err := stream.NextBatch(gen, 100)
		if err != nil {
			t.Fatal(err)
		}
		s.Learn(b)
	}
}

// Every Scorer implementation exposes the served model's schema, so the
// network tier can validate request row width before dispatch.
func TestScorerSchema(t *testing.T) {
	want := synth.NewSEA(100, 0.1, 1).Schema()
	for mode, s := range metaScorers(t) {
		got := s.Schema()
		if got.NumFeatures != want.NumFeatures || got.NumClasses != want.NumClasses {
			t.Errorf("%s: Schema() = %d features / %d classes, want %d / %d",
				mode, got.NumFeatures, got.NumClasses, want.NumFeatures, want.NumClasses)
		}
	}
}

// A scorer over a classifier that exposes no schema yields the zero
// Schema instead of failing construction.
func TestScorerSchemaUnavailable(t *testing.T) {
	s := NewLocked(constClassifier{})
	if got := s.Schema(); got.NumFeatures != 0 || got.NumClasses != 0 {
		t.Fatalf("Schema() of schemaless classifier = %+v, want zero", got)
	}
	if _, ok := s.StructureVersion(); ok {
		t.Fatal("StructureVersion() of versionless classifier reports ok")
	}
}

// constClassifier is a minimal schemaless model.Classifier.
type constClassifier struct{}

func (constClassifier) Learn(stream.Batch)           {}
func (constClassifier) Predict([]float64) int        { return 0 }
func (constClassifier) Complexity() model.Complexity { return model.Complexity{} }
func (constClassifier) Name() string                 { return "const" }

// StructureVersion moves with training on every implementation, and the
// snapshot scorer reports the *published* version: in on-change mode the
// published version tracks the live one exactly at publish points.
func TestScorerStructureVersion(t *testing.T) {
	for mode, s := range metaScorers(t) {
		v0, ok := s.StructureVersion()
		if !ok {
			t.Fatalf("%s: VFDT scorer reports no structure version", mode)
		}
		trainSome(t, s, 7, 240)
		v1, ok := s.StructureVersion()
		if !ok {
			t.Fatalf("%s: structure version lost after training", mode)
		}
		if v1 < v0 {
			t.Errorf("%s: structure version went backwards: %d -> %d", mode, v0, v1)
		}
		if v1 == 0 {
			t.Errorf("%s: structure version still 0 after 24000 SEA rows (no split?)", mode)
		}
	}
}

// Empty and nil batches short-circuit: an empty result, no lock
// acquisition, no snapshot load — and a reused
// out buffer is truncated, not kept at its stale length.
func TestBatchEmptyAndNil(t *testing.T) {
	for mode, s := range metaScorers(t) {
		trainSome(t, s, 3, 5)
		for _, X := range [][][]float64{nil, {}} {
			if got := s.PredictBatch(X, nil); len(got) != 0 {
				t.Errorf("%s: PredictBatch(%v, nil) has %d rows, want 0", mode, X, len(got))
			}
			stale := make([]int, 7)
			if got := s.PredictBatch(X, stale); len(got) != 0 {
				t.Errorf("%s: PredictBatch(%v, stale) has %d rows, want 0", mode, X, len(got))
			}
			if got := s.ProbaBatch(X, nil); len(got) != 0 {
				t.Errorf("%s: ProbaBatch(%v, nil) has %d rows, want 0", mode, X, len(got))
			}
			staleRows := make([][]float64, 4)
			if got := s.ProbaBatch(X, staleRows); len(got) != 0 {
				t.Errorf("%s: ProbaBatch(%v, stale) has %d rows, want 0", mode, X, len(got))
			}
		}
		// An empty Learn is a no-op.
		s.Learn(stream.Batch{})
	}
}
