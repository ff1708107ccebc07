package core

import (
	"testing"

	"repro/internal/stream"
)

// Steady-state Learn must be allocation-free: every working buffer comes
// from the per-tree scratch arena and the per-node candidate arenas, so
// once the buffers have reached their high-water marks, only structural
// changes (splits, replacements, deepening) may allocate. The linear
// concept below never splits (Property 2), so after warm-up the tree is
// in steady state: proposals are still drawn, admitted and evicted every
// batch, all without allocating.
func TestLearnSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name       string
		m, c, rows int
	}{
		{"binary/m=10", 10, 2, 100},
		{"multiclass/m=10", 10, 4, 100},
		// Gas-shaped: wide enough that the candidate scan runs on the pool.
		{"multiclass/m=128", 128, 6, 13},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches := benchBatches(tc.m, 32, tc.rows, 21)
			if tc.c > 2 {
				for _, b := range batches {
					for i := range b.Y {
						b.Y[i] = b.Y[i] % tc.c
					}
				}
			}
			tree := New(Config{Seed: 2}, stream.Schema{NumFeatures: tc.m, NumClasses: tc.c, Name: "alloc"})
			for _, b := range batches {
				tree.Learn(b)
			}
			if tree.Complexity().Inner != 0 {
				t.Skip("tree split during warm-up; steady state not reachable with this data")
			}
			i := 0
			avg := testing.AllocsPerRun(200, func() {
				tree.Learn(batches[i&31])
				i++
			})
			if avg != 0 {
				t.Fatalf("steady-state Learn allocates %.2f allocs/op, want 0", avg)
			}
		})
	}
}

// Predict and Proba never touch the Learn scratch and must be
// allocation-free when the caller supplies the out buffer.
func TestPredictProbaZeroAllocs(t *testing.T) {
	for _, c := range []int{2, 4} {
		batches := benchBatches(6, 8, 100, 23)
		if c > 2 {
			for _, b := range batches {
				for i := range b.Y {
					b.Y[i] = (b.Y[i] + i) % c
				}
			}
		}
		tree := New(Config{Seed: 3}, stream.Schema{NumFeatures: 6, NumClasses: c, Name: "alloc"})
		for _, b := range batches {
			tree.Learn(b)
		}
		x := batches[0].X[0]
		out := make([]float64, c)
		tree.Predict(x) // warm any lazily sized model scratch
		if avg := testing.AllocsPerRun(200, func() { tree.Predict(x) }); avg != 0 {
			t.Fatalf("c=%d: Predict allocates %.2f allocs/op, want 0", c, avg)
		}
		if avg := testing.AllocsPerRun(200, func() { tree.Proba(x, out) }); avg != 0 {
			t.Fatalf("c=%d: Proba allocates %.2f allocs/op, want 0", c, avg)
		}
	}
}
