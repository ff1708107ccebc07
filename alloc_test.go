package repro

import (
	"testing"
)

// Serving-path allocation regression: a Scorer wrapping a warmed DMT must
// answer Predict and Proba (with a caller-supplied out buffer) without
// allocating, and steady-state Learn through the public API must stay at
// zero allocations too — the candidate index and the per-tree scratch
// arena absorb all per-batch working memory.
func TestScorerServingZeroAllocs(t *testing.T) {
	batches := linearBenchBatches(8, 16, 100, 9)
	tree := NewDMT(DMTConfig{Seed: 4}, Schema{NumFeatures: 8, NumClasses: 2, Name: "alloc"})
	for _, b := range batches {
		tree.Learn(b)
	}
	if tree.Complexity().Inner != 0 {
		t.Skip("tree split during warm-up; steady state not reachable with this data")
	}
	s := NewScorer(tree)
	x := batches[0].X[0]
	out := make([]float64, 2)
	s.Predict(x)
	s.Proba(x, out)

	if avg := testing.AllocsPerRun(200, func() { s.Predict(x) }); avg != 0 {
		t.Fatalf("Scorer.Predict allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { s.Proba(x, out) }); avg != 0 {
		t.Fatalf("Scorer.Proba allocates %.2f allocs/op, want 0", avg)
	}
	i := 0
	if avg := testing.AllocsPerRun(200, func() {
		s.Learn(batches[i&15])
		i++
	}); avg != 0 {
		t.Fatalf("steady-state Scorer.Learn allocates %.2f allocs/op, want 0", avg)
	}
}

// The wait-free serving reads of the snapshot scorer must not allocate
// either: Predict, Proba with an out buffer, and PredictBatch into a
// preallocated slice all read the published snapshot without garbage.
// (Learn is excluded: publishing clones a snapshot by design — amortise
// with WithPublishEvery.)
func TestSnapshotScorerServingZeroAllocs(t *testing.T) {
	batches := linearBenchBatches(8, 16, 100, 9)
	s := MustServe("DMT", Schema{NumFeatures: 8, NumClasses: 2, Name: "alloc"},
		WithServeModelOptions(WithSeed(4)))
	for _, b := range batches {
		s.Learn(b)
	}
	x := batches[0].X[0]
	out := make([]float64, 2)
	preds := make([]int, 100)
	if avg := testing.AllocsPerRun(200, func() { s.Predict(x) }); avg != 0 {
		t.Fatalf("SnapshotScorer.Predict allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { s.Proba(x, out) }); avg != 0 {
		t.Fatalf("SnapshotScorer.Proba allocates %.2f allocs/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(200, func() { preds = s.PredictBatch(batches[0].X, preds) }); avg != 0 {
		t.Fatalf("SnapshotScorer.PredictBatch allocates %.2f allocs/op, want 0", avg)
	}
}

// FIMT-DD steady-state learning through the public API must allocate
// nothing: the routing path buffer, E-BST updates on indexed keys and
// the RowStep leaf update all reuse per-tree state.
func TestFIMTDDLearnZeroAllocs(t *testing.T) {
	tree := NewFIMTDD(FIMTDDConfig{Seed: 5}, Schema{NumFeatures: 4, NumClasses: 2, Name: "alloc"})
	// Single-class batches over a fixed row set: the E-BST keys exist
	// after warm-up and the zero target deviation keeps split scans out
	// of the measured region.
	X := [][]float64{{0.1, 0.2, 0.3, 0.4}, {0.5, 0.6, 0.7, 0.8}, {0.9, 0.1, 0.4, 0.2}}
	b := Batch{X: X, Y: []int{0, 0, 0}}
	for i := 0; i < 200; i++ {
		tree.Learn(b)
	}
	if avg := testing.AllocsPerRun(300, func() { tree.Learn(b) }); avg != 0 {
		t.Fatalf("steady-state FIMT-DD Learn allocates %.2f allocs/op, want 0", avg)
	}
}

// Categorical learn and predict must match the numeric path's zero-alloc
// steady state: the categorical candidate buckets, the observer counts
// and the subset-scan buffers all live in preallocated arenas.
func TestDMTCategoricalZeroAllocs(t *testing.T) {
	schema := Schema{
		NumFeatures: 4, NumClasses: 2, Name: "cat-alloc",
		Kinds: []FeatureKind{
			NumericKind(), NumericKind(), CategoricalKind(6), CategoricalKind(3),
		},
	}
	// Single-class batches: candidates update (including the categorical
	// exact-match buckets) but no informative split exists, so the
	// structure stays put and the measurement sees the steady state.
	X := make([][]float64, 32)
	Y := make([]int, 32)
	for i := range X {
		X[i] = []float64{float64(i) / 32, float64(31-i) / 32, float64(i % 6), float64(i % 3)}
	}
	b := Batch{X: X, Y: Y}
	tree := NewDMT(DMTConfig{Seed: 4}, schema)
	for i := 0; i < 100; i++ {
		tree.Learn(b)
	}
	if tree.Complexity().Inner != 0 {
		t.Skip("tree split during warm-up; steady state not reachable with this data")
	}
	if avg := testing.AllocsPerRun(300, func() { tree.Learn(b) }); avg != 0 {
		t.Fatalf("categorical DMT Learn allocates %.2f allocs/op, want 0", avg)
	}
	x := X[7]
	if avg := testing.AllocsPerRun(300, func() { tree.Predict(x) }); avg != 0 {
		t.Fatalf("categorical DMT Predict allocates %.2f allocs/op, want 0", avg)
	}
}

// The Hoeffding tree's categorical observers must not allocate in the
// steady state either.
func TestVFDTCategoricalZeroAllocs(t *testing.T) {
	schema := Schema{
		NumFeatures: 3, NumClasses: 2, Name: "cat-alloc",
		Kinds: []FeatureKind{NumericKind(), NumericKind(), CategoricalKind(8)},
	}
	X := make([][]float64, 32)
	Y := make([]int, 32)
	for i := range X {
		X[i] = []float64{float64(i) / 32, float64(31-i) / 32, float64(i % 8)}
	}
	b := Batch{X: X, Y: Y}
	tree := NewVFDT(VFDTConfig{Seed: 4}, schema)
	for i := 0; i < 100; i++ {
		tree.Learn(b)
	}
	if avg := testing.AllocsPerRun(300, func() { tree.Learn(b) }); avg != 0 {
		t.Fatalf("categorical VFDT Learn allocates %.2f allocs/op, want 0", avg)
	}
	x := X[5]
	if avg := testing.AllocsPerRun(300, func() { tree.Predict(x) }); avg != 0 {
		t.Fatalf("categorical VFDT Predict allocates %.2f allocs/op, want 0", avg)
	}
}

// versionStepper is a stub learner whose every Learn is a structural
// event, serving one shared immutable snapshot (itself), so a publish
// costs only the scorer's own bookkeeping.
type versionStepper struct{ version uint64 }

func (v *versionStepper) Learn(Batch)              { v.version++ }
func (v *versionStepper) Predict([]float64) int    { return 0 }
func (v *versionStepper) Complexity() Complexity   { return Complexity{} }
func (v *versionStepper) Name() string             { return "stepper" }
func (v *versionStepper) Snapshot() ModelSnapshot  { return v }
func (v *versionStepper) StructureVersion() uint64 { return v.version }

// Publish-on-change Learn must stay allocation-free for the change
// signal behind Scorer.Changed: a Learn that moves the version allocates
// exactly what its publish does (the published-state header, by design)
// and nothing for the signal when no one waits, and a Learn that does
// not move it allocates nothing, whether or not someone waits.
func TestOnChangeLearnSignalZeroAllocs(t *testing.T) {
	s, err := NewSnapshotOnChangeScorer(&versionStepper{})
	if err != nil {
		t.Fatal(err)
	}
	publish := testing.AllocsPerRun(200, s.Publish)
	var b Batch
	if avg := testing.AllocsPerRun(200, func() { s.Learn(b) }); avg != publish {
		t.Fatalf("version-moving on-change Learn allocates %.2f allocs/op, its publish %.2f: the change signal allocates", avg, publish)
	}

	batches := linearBenchBatches(8, 16, 100, 9)
	dmt, err := NewSnapshotOnChangeScorer(NewDMT(DMTConfig{Seed: 4}, Schema{NumFeatures: 8, NumClasses: 2, Name: "alloc"}))
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		dmt.Learn(b)
	}
	if v, _ := dmt.StructureVersion(); v != 0 {
		t.Skip("tree split during warm-up; steady state not reachable with this data")
	}
	i := 0
	learn := func() {
		dmt.Learn(batches[i&15])
		i++
	}
	if avg := testing.AllocsPerRun(200, learn); avg != 0 {
		t.Fatalf("steady-state on-change Learn allocates %.2f allocs/op, want 0", avg)
	}
	dmt.Changed() // a parked waiter
	if avg := testing.AllocsPerRun(200, learn); avg != 0 {
		t.Fatalf("steady-state on-change Learn with a waiter allocates %.2f allocs/op, want 0", avg)
	}
}
