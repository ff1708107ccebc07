package eval

import (
	"testing"

	"repro/internal/model"
	"repro/internal/stream"
)

// nopClassifier reads every cell of what it learns and predicts and
// allocates nothing, so a prequential run over it allocates only what
// the harness does.
type nopClassifier struct{ sum float64 }

func (c *nopClassifier) Learn(b stream.Batch) {
	for _, x := range b.X {
		c.sum += x[0]
	}
}

func (c *nopClassifier) Predict(x []float64) int {
	if x[0] > 0.5 {
		return 1
	}
	return 0
}

func (c *nopClassifier) Complexity() model.Complexity { return model.Complexity{} }
func (c *nopClassifier) Name() string                 { return "nop" }

// harnessData is rows rows of m features, labelled alternately.
func harnessData(rows, m int) (stream.Schema, stream.Batch) {
	b := stream.Batch{X: make([][]float64, rows), Y: make([]int, rows)}
	for i := range b.X {
		b.X[i] = make([]float64, m)
		for j := range b.X[i] {
			b.X[i][j] = float64((i*m+j)%97) / 97
		}
		b.Y[i] = i % 2
	}
	return stream.Schema{NumFeatures: m, NumClasses: 2, Name: "harness"}, b
}

// A prequential run over a Memory allocates per batch, not per row: the
// batches are views of the stream's rows, so ten times the rows in the
// same number of batches must cost the same allocations.
func TestPrequentialMemoryAllocsPerBatch(t *testing.T) {
	const batches = 20
	allocs := func(batch int) float64 {
		schema, data := harnessData(batches*batch, 8)
		c := &nopClassifier{}
		opts := Options{BatchFraction: 1e-9, MinBatchSize: batch}
		return testing.AllocsPerRun(20, func() {
			res, err := Prequential(c, stream.NewMemory(schema, data), opts)
			if err != nil || len(res.Iters) != batches {
				t.Fatalf("%d iterations, %v; want %d", len(res.Iters), err, batches)
			}
		})
	}
	small, large := allocs(16), allocs(160)
	if small != large {
		t.Fatalf("%d batches of 16 rows allocate %.0f times, of 160 rows %.0f times", batches, small, large)
	}
}

// BenchmarkPrequentialMemoryOp times the evaluation harness alone: one
// prequential pass over a 20k-row, 50-feature Memory in 0.1% batches,
// with a classifier that does no work.
func BenchmarkPrequentialMemoryOp(b *testing.B) {
	schema, data := harnessData(20_000, 50)
	c := &nopClassifier{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Prequential(c, stream.NewMemory(schema, data), Options{}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)*float64(data.Len())/b.Elapsed().Seconds(), "rows/s")
}
