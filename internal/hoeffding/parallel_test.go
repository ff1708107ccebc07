package hoeffding

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/split"
	"repro/internal/stream"
)

// withScanGate runs fn with the split-scan gate forced: minWork 0 scores
// every scan on the pool in parts feature ranges, math.MaxInt keeps every
// scan inline.
func withScanGate(minWork, parts int, fn func()) {
	saved := scanGate
	scanGate.minWork, scanGate.parts = minWork, parts
	defer func() { scanGate = saved }()
	fn()
}

// wideBatch draws rows of a Gas-shaped schema (128 numeric features, 6
// classes, plus two categorical features when cat) whose class depends
// on a handful of them, so the tree keeps splitting.
func wideBatch(rng *rand.Rand, schema stream.Schema, n int) stream.Batch {
	var b stream.Batch
	for i := 0; i < n; i++ {
		x := make([]float64, schema.NumFeatures)
		for j := range x {
			if card := schema.Cardinality(j); card > 0 {
				x[j] = float64(rng.Intn(card))
			} else {
				x[j] = rng.Float64()
			}
		}
		y := int(3*x[0]) + 3*int(2*x[7])
		if schema.Cardinality(1) > 0 && x[1] == 2 {
			y = 5 - y
		}
		if rng.Float64() < 0.05 {
			y = rng.Intn(schema.NumClasses)
		}
		b.X = append(b.X, x)
		b.Y = append(b.Y, y%schema.NumClasses)
	}
	return b
}

// TestPoolScanMatchesInline forces the split scan onto the pool and
// inline on the same wide stream, for both criteria and with categorical
// features, and requires identical predictions after every batch and
// identical checkpoint bytes at the end.
func TestPoolScanMatchesInline(t *testing.T) {
	kinds := make([]stream.FeatureKind, 128)
	kinds[1] = stream.FeatureKind{Categorical: true, Cardinality: 4}
	kinds[5] = stream.FeatureKind{Categorical: true, Cardinality: 9}
	for _, tc := range []struct {
		name   string
		schema stream.Schema
		crit   split.Criterion
	}{
		{"numeric/info-gain", stream.Schema{NumFeatures: 128, NumClasses: 6, Name: "wide"}, split.InfoGain{}},
		{"numeric/gini", stream.Schema{NumFeatures: 128, NumClasses: 6, Name: "wide"}, split.GiniGain{}},
		{"categorical", stream.Schema{NumFeatures: 128, NumClasses: 6, Name: "wide-cat", Kinds: kinds}, split.InfoGain{}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Config{Seed: 4, Criterion: tc.crit, GracePeriod: 100, Delta: 0.01, Tau: 0.2}
			pooled, inline := New(cfg, tc.schema), New(cfg, tc.schema)
			rng := rand.New(rand.NewSource(6))
			batches := 40
			if testing.Short() {
				batches = 20
			}
			for i := 0; i < batches; i++ {
				b := wideBatch(rng, tc.schema, 100)
				withScanGate(0, 3, func() { pooled.Learn(b) })
				withScanGate(math.MaxInt, 0, func() { inline.Learn(b) })
				for r, x := range b.X {
					if p, q := pooled.Predict(x), inline.Predict(x); p != q {
						t.Fatalf("batch %d row %d: pooled predicts %d, inline %d", i, r, p, q)
					}
				}
			}
			var a, b bytes.Buffer
			if err := pooled.SaveState(&a); err != nil {
				t.Fatal(err)
			}
			if err := inline.SaveState(&b); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatal("pooled and inline checkpoints differ")
			}
			if inline.Complexity().Inner < 2 {
				t.Fatalf("precondition: want at least two splits, got %d", inline.Complexity().Inner)
			}
		})
	}
}

// Every feature position must be scored on the pooled path: with the
// class decided by feature f alone, the pooled best and runner-up splits
// equal the inline ones for every f and every part count.
func TestPoolBestSplitsScoreEveryFeature(t *testing.T) {
	const m = 48
	cfg := (&Config{}).withTestDefaults()
	schema := stream.Schema{NumFeatures: m, NumClasses: 3, Name: "every"}
	rng := rand.New(rand.NewSource(43))
	for f := 0; f < m; f++ {
		s := NewNodeStats(cfg, schema, nil, nil)
		for i := 0; i < 60; i++ {
			x := make([]float64, m)
			for j := range x {
				x[j] = rng.Float64()
			}
			s.Observe(x, int(3*x[f]), 1)
		}
		type result struct {
			best, second splitRef
			ok           bool
		}
		var inline, pooled result
		withScanGate(math.MaxInt, 0, func() { inline.best, inline.second, inline.ok = s.bestSplits() })
		for _, parts := range []int{2, 3, 5, 7} {
			withScanGate(0, parts, func() { pooled.best, pooled.second, pooled.ok = s.bestSplits() })
			if inline.best.feature != f || pooled != inline {
				t.Fatalf("f=%d parts=%d: pooled %+v, inline %+v", f, parts, pooled, inline)
			}
		}
	}
}

// The pooled scan must stay allocation-free once its per-part buffers
// exist, like the inline one (TestDecideSplitScanZeroAllocs).
func TestPoolScanZeroAllocs(t *testing.T) {
	cfg := (&Config{}).withTestDefaults()
	schema := stream.Schema{NumFeatures: 128, NumClasses: 6, Name: "wide"}
	s := NewNodeStats(cfg, schema, nil, nil)
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 600; i++ {
		x := make([]float64, 128)
		for j := range x {
			x[j] = rng.Float64()
		}
		s.Observe(x, i%6, 1)
	}
	withScanGate(0, 3, func() {
		s.BestSplits()
		if avg := testing.AllocsPerRun(100, func() { s.BestSplits() }); avg != 0 {
			t.Fatalf("pooled BestSplits allocates %.2f allocs/op, want 0", avg)
		}
	})
}
