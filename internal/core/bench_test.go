package core

import (
	"math/rand"
	"testing"

	"repro/internal/stream"
)

// benchBatches builds steady-state linear batches over m features (the
// tree does not split on a linear concept, so the candidate pool settles).
func benchBatches(m, count, size int, seed int64) []stream.Batch {
	rng := rand.New(rand.NewSource(seed))
	w := make([]float64, m)
	for j := range w {
		w[j] = rng.NormFloat64()
	}
	out := make([]stream.Batch, count)
	for k := range out {
		X := make([][]float64, size)
		Y := make([]int, size)
		for i := 0; i < size; i++ {
			x := make([]float64, m)
			s := -0.25 * float64(m)
			for j := range x {
				x[j] = rng.Float64()
				s += w[j] * x[j]
			}
			X[i] = x
			if s > 0 {
				Y[i] = 1
			}
		}
		out[k] = stream.Batch{X: X, Y: Y}
	}
	return out
}

// BenchmarkCandidateScanOp measures one node-level statistics update
// (candidate accumulation + proposal admission) on a warmed node with a
// full candidate pool — the inner loop the candidate index optimises.
// Besides the binary 100-row sweep over m it runs two preq-wide shapes:
// Gas* (m = 128, 6 classes, 13-row batches: w = 645, a 2.6 MB arena) and
// Hyperplane (m = 50, binary, 500-row batches).
func BenchmarkCandidateScanOp(b *testing.B) {
	cases := []struct {
		name       string
		m, c, rows int
	}{
		{"m=10", 10, 2, 100},
		{"m=50", 50, 2, 100},
		{"m=200", 200, 2, 100},
		{"gas/m=128/c=6/rows=13", 128, 6, 13},
		{"hyperplane/m=50/rows=500", 50, 2, 500},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			batches := benchBatches(tc.m, 16, tc.rows, 11)
			for _, bt := range batches {
				for i := range bt.Y {
					bt.Y[i] = (bt.Y[i] + i) % tc.c
				}
			}
			tree := New(Config{Seed: 1}, stream.Schema{NumFeatures: tc.m, NumClasses: tc.c, Name: "bench"})
			n := tree.root
			for _, bt := range batches {
				tree.updateStats(n, bt) // fill the pool
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tree.updateStats(n, batches[i&15])
			}
		})
	}
}
