package serve

import (
	"sync"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"
	"repro/internal/synth"

	// Pull in every learner registration so the registry-driven
	// constructors can build all paper models.
	_ "repro/internal/core"
	_ "repro/internal/efdt"
	_ "repro/internal/ensemble"
	_ "repro/internal/fimtdd"
	_ "repro/internal/glm"
	_ "repro/internal/hatada"
	_ "repro/internal/hoeffding"
	_ "repro/internal/nbayes"
)

// seaBatches materialises n batches of the SEA stream.
func seaBatches(t testing.TB, n, size int, seed int64) ([]stream.Batch, stream.Schema) {
	t.Helper()
	gen := synth.NewSEA(n*size+size, 0.1, seed)
	out := make([]stream.Batch, n)
	for i := range out {
		b, err := stream.NextBatch(gen, size)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out, gen.Schema()
}

// multiclassBatches materialises a 4-class cluster stream, exercising
// the Softmax leaf models.
func multiclassBatches(t testing.TB, n, size int, seed int64) ([]stream.Batch, stream.Schema) {
	t.Helper()
	gen := synth.NewCluster(synth.ClusterConfig{
		Name: "serve4", Samples: n*size + size, Features: 3, Classes: 4, Seed: seed,
	})
	out := make([]stream.Batch, n)
	for i := range out {
		b, err := stream.NextBatch(gen, size)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = b
	}
	return out, gen.Schema()
}

// lockedAndSnapshot builds two identically seeded copies of a
// registered model: one behind the RWMutex scorer, the reference, and
// one behind the snapshot scorer New serves it with.
func lockedAndSnapshot(t *testing.T, name string, schema stream.Schema, seed int64) (locked, snap Scorer) {
	t.Helper()
	snap, err := New(Config{Model: name, Schema: schema,
		Options: []registry.Option{registry.WithSeed(seed)}})
	if err != nil {
		t.Fatal(err)
	}
	return NewLocked(registryMust(t, name, schema, seed)), snap
}

// assertSameReads fails when the two scorers disagree on any probe row
// (prediction or probability vector, bitwise).
func assertSameReads(t *testing.T, name string, a, b Scorer, probes [][]float64, classes int) {
	t.Helper()
	pa, pb := make([]float64, classes), make([]float64, classes)
	for i, x := range probes {
		ya, yb := a.Predict(x), b.Predict(x)
		if ya != yb {
			t.Fatalf("%s: Predict diverges at probe %d: %d vs %d", name, i, ya, yb)
		}
		pa, pb = a.Proba(x, pa), b.Proba(x, pb)
		if len(pa) != len(pb) {
			t.Fatalf("%s: Proba lengths diverge: %d vs %d", name, len(pa), len(pb))
		}
		for k := range pa {
			if pa[k] != pb[k] {
				t.Fatalf("%s: Proba[%d] diverges at probe %d: %v vs %v", name, k, i, pa[k], pb[k])
			}
		}
	}
}

// Every registered model must serve byte-identical predictions through
// the lock-free snapshot scorer and the RWMutex scorer at every publish
// point — the core acceptance criterion of the snapshot rework.
func TestSnapshotMatchesLockedAllModels(t *testing.T) {
	batches, schema := seaBatches(t, 12, 100, 3)
	probes := batches[len(batches)-1].X
	for _, name := range registry.Names() {
		t.Run(name, func(t *testing.T) {
			locked, snap := lockedAndSnapshot(t, name, schema, 7)
			if _, ok := snap.(*SnapshotScorer); !ok {
				t.Fatalf("registered model %q did not get a snapshot scorer", name)
			}
			assertSameReads(t, name, locked, snap, probes, schema.NumClasses)
			for k, b := range batches[:len(batches)-1] {
				locked.Learn(b)
				snap.Learn(b)
				assertSameReads(t, name, locked, snap, probes, schema.NumClasses)
				if lc, sc := locked.Complexity(), snap.Complexity(); lc != sc {
					t.Fatalf("%s: complexity diverges after batch %d: %+v vs %+v", name, k, lc, sc)
				}
			}
		})
	}
}

// Multiclass variant: Softmax leaf models and 4-class NB must survive
// the same equivalence.
func TestSnapshotMatchesLockedMulticlass(t *testing.T) {
	batches, schema := multiclassBatches(t, 8, 100, 5)
	probes := batches[len(batches)-1].X
	for _, name := range []string{"DMT", "FIMT-DD", "GLM", "Naive Bayes", "VFDT (NBA)"} {
		locked, snap := lockedAndSnapshot(t, name, schema, 2)
		for _, b := range batches[:len(batches)-1] {
			locked.Learn(b)
			snap.Learn(b)
		}
		assertSameReads(t, name, locked, snap, probes, schema.NumClasses)
	}
}

// A snapshot published after batch k must predict identically to a
// sequential model trained on exactly k batches — including between
// publishes, where the scorer serves the last published state.
func TestPublishCadenceStaleness(t *testing.T) {
	const publishEvery = 3
	batches, schema := seaBatches(t, 10, 100, 9)
	probes := batches[len(batches)-1].X

	// Record the reference predictions of a bare model after each k.
	ref, err := registry.New("DMT", schema, registry.WithSeed(4))
	if err != nil {
		t.Fatal(err)
	}
	refPreds := make([][]int, len(batches))
	record := func(k int) {
		refPreds[k] = make([]int, len(probes))
		for i, x := range probes {
			refPreds[k][i] = ref.Predict(x)
		}
	}
	record(0)
	for k, b := range batches[:len(batches)-1] {
		ref.Learn(b)
		record(k + 1)
	}

	scorer, err := NewSnapshot(registryMust(t, "DMT", schema, 4), publishEvery)
	if err != nil {
		t.Fatal(err)
	}
	published := 0
	for k, b := range batches[:len(batches)-1] {
		scorer.Learn(b)
		if (k+1)%publishEvery == 0 {
			published = k + 1
		}
		for i, x := range probes {
			if got := scorer.Predict(x); got != refPreds[published][i] {
				t.Fatalf("after batch %d (published %d): probe %d = %d, want %d",
					k+1, published, i, got, refPreds[published][i])
			}
		}
	}
	// A forced publish catches the scorer up to the live model.
	scorer.Publish()
	last := len(batches) - 1
	for i, x := range probes {
		if got := scorer.Predict(x); got != refPreds[last][i] {
			t.Fatalf("after forced publish: probe %d = %d, want %d", i, got, refPreds[last][i])
		}
	}
}

func registryMust(t *testing.T, name string, schema stream.Schema, seed int64) model.Classifier {
	t.Helper()
	c, err := registry.New(name, schema, registry.WithSeed(seed))
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// The batch read APIs must agree with the per-row ones and serve the
// whole batch from one state.
func TestBatchReadsMatchRowReads(t *testing.T) {
	batches, schema := seaBatches(t, 6, 100, 13)
	locked, snap := lockedAndSnapshot(t, "VFDT (NBA)", schema, 3)
	for mode, s := range map[string]Scorer{"locked": locked, "snapshot": snap} {
		for _, b := range batches[:5] {
			s.Learn(b)
		}
		X := batches[5].X
		preds := s.PredictBatch(X, nil)
		probas := s.ProbaBatch(X, nil)
		single := make([]float64, schema.NumClasses)
		for i, x := range X {
			if got := s.Predict(x); got != preds[i] {
				t.Fatalf("%s: PredictBatch[%d] = %d, Predict = %d", mode, i, preds[i], got)
			}
			single = s.Proba(x, single)
			for k := range single {
				if probas[i][k] != single[k] {
					t.Fatalf("%s: ProbaBatch[%d][%d] = %v, Proba = %v", mode, i, k, probas[i][k], single[k])
				}
			}
		}
		// Reuse: the returned buffers must be reusable without growth.
		preds2 := s.PredictBatch(X, preds)
		if &preds2[0] != &preds[0] {
			t.Fatalf("%s: PredictBatch reallocated a sufficient out buffer", mode)
		}
	}
}

// nonSnapshotClassifier is a minimal external model without Snapshot.
type nonSnapshotClassifier struct{ n int }

func (c *nonSnapshotClassifier) Learn(b stream.Batch)         { c.n += b.Len() }
func (c *nonSnapshotClassifier) Predict(x []float64) int      { return 1 }
func (c *nonSnapshotClassifier) Complexity() model.Complexity { return model.Complexity{} }
func (c *nonSnapshotClassifier) Name() string                 { return "external" }

// External learners without Snapshot support degrade to the lock-based
// scorer through Wrap, and NewSnapshot reports them.
func TestNonSnapshotFallback(t *testing.T) {
	if _, err := NewSnapshot(&nonSnapshotClassifier{}, 1); err == nil {
		t.Fatal("NewSnapshot accepted a classifier without Snapshot")
	}
	s := Wrap(&nonSnapshotClassifier{}, 1)
	if _, ok := s.(*lockScorer); !ok {
		t.Fatalf("Wrap returned %T, want *lockScorer", s)
	}
	// The one-hot Proba fallback grows in place to exactly y+1 entries.
	x := []float64{0}
	out := s.Proba(x, make([]float64, 0, 8))
	if len(out) != 2 || out[1] != 1 || out[0] != 0 {
		t.Fatalf("one-hot fallback = %v", out)
	}
	if avg := testing.AllocsPerRun(100, func() { out = s.Proba(x, out) }); avg != 0 {
		t.Fatalf("one-hot fallback with sufficient cap allocates %.2f allocs/op", avg)
	}
}

// OneHot keeps a covering buffer's length and grows short ones in place.
func TestOneHotSemantics(t *testing.T) {
	long := OneHot(1, make([]float64, 5))
	if len(long) != 5 || long[1] != 1 {
		t.Fatalf("covering buffer: %v", long)
	}
	buf := make([]float64, 0, 8)
	grown := OneHot(3, buf)
	if len(grown) != 4 || grown[3] != 1 {
		t.Fatalf("grown buffer: %v", grown)
	}
	if &grown[0] != &buf[:1][0] {
		t.Fatal("OneHot abandoned a sufficient backing array")
	}
}

// Wait-free reads must not allocate: Predict and Proba (with an out
// buffer) on a warmed snapshot scorer, plus PredictBatch with a
// preallocated out slice.
func TestSnapshotReadsZeroAlloc(t *testing.T) {
	batches, schema := seaBatches(t, 6, 100, 19)
	for _, name := range []string{"DMT", "Naive Bayes", "VFDT (NBA)"} {
		s, err := New(Config{Model: name, Schema: schema,
			Options: []registry.Option{registry.WithSeed(6)}})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches[:5] {
			s.Learn(b)
		}
		x := batches[5].X[0]
		out := make([]float64, schema.NumClasses)
		preds := make([]int, len(batches[5].X))
		if avg := testing.AllocsPerRun(200, func() { s.Predict(x) }); avg != 0 {
			t.Fatalf("%s: snapshot Predict allocates %.2f allocs/op", name, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { s.Proba(x, out) }); avg != 0 {
			t.Fatalf("%s: snapshot Proba allocates %.2f allocs/op", name, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { preds = s.PredictBatch(batches[5].X, preds) }); avg != 0 {
			t.Fatalf("%s: snapshot PredictBatch allocates %.2f allocs/op", name, avg)
		}
	}
}

// The -race hammer of the satellite task: concurrent Predict/Proba and
// batch reads against a learning FIMT-DD, GLM and Naive Bayes under
// both scorer implementations.
func TestConcurrentReadsDuringLearn(t *testing.T) {
	for _, name := range []string{"FIMT-DD", "GLM", "Naive Bayes"} {
		for _, mode := range []string{"locked", "snapshot"} {
			t.Run(name+"/"+mode, func(t *testing.T) {
				batches, schema := seaBatches(t, 40, 100, 23)
				s, snap := lockedAndSnapshot(t, name, schema, 8)
				if mode == "snapshot" {
					s = snap
				}
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for r := 0; r < 4; r++ {
					wg.Add(1)
					go func(r int) {
						defer wg.Done()
						probe := batches[r].X[r]
						proba := make([]float64, schema.NumClasses)
						var preds []int
						var probas [][]float64
						for {
							select {
							case <-stop:
								return
							default:
							}
							if y := s.Predict(probe); y < 0 || y >= schema.NumClasses {
								t.Errorf("reader %d got class %d", r, y)
								return
							}
							proba = s.Proba(probe, proba)
							preds = s.PredictBatch(batches[r].X[:8], preds)
							probas = s.ProbaBatch(batches[r].X[:8], probas)
							_ = s.Complexity()
						}
					}(r)
				}
				for _, b := range batches {
					s.Learn(b)
				}
				close(stop)
				wg.Wait()
			})
		}
	}
}
