package repro

import (
	"context"

	"repro/internal/eval"
	"repro/internal/stream"
)

// Context-aware evaluation and the concurrent experiment Runner: the
// serving-grade entry points. The context-free Prequential and
// ExperimentSuite.Run remain as thin shims over these.

// PrequentialContext runs test-then-train evaluation under a context: the
// context is checked before every iteration, and a cancelled run returns
// the iterations finished so far together with ctx.Err().
func PrequentialContext(ctx context.Context, c Classifier, s Stream, opts EvalOptions) (EvalResult, error) {
	return eval.PrequentialContext(ctx, c, s, opts)
}

// ContextStream is optionally implemented by streams whose production can
// block; NextContext must honour cancellation.
type ContextStream = stream.ContextStream

// NextWithContext draws one instance honouring cancellation, delegating
// to NextContext when the stream implements ContextStream.
func NextWithContext(ctx context.Context, s Stream) (Instance, error) {
	return stream.NextWithContext(ctx, s)
}

// NextBatch draws up to n instances from s, returning ErrEndOfStream only
// when nothing at all could be drawn — the building block of hand-rolled
// training loops (see cmd/dmtserve). From an in-memory stream
// (NewMemoryStream, ReadCSVStream) the batch shares the stream's rows,
// which must then only be read; from any other stream it is fresh.
func NextBatch(s Stream, n int) (Batch, error) { return stream.NextBatch(s, n) }

// NextBatchContext is NextBatch with cancellation checked before every
// instance (once, for an in-memory stream); a cancelled context drops the
// partial batch.
func NextBatchContext(ctx context.Context, s Stream, n int) (Batch, error) {
	return stream.NextBatchContext(ctx, s, n)
}

// Experiment cells and the concurrent Runner.
type (
	// Cell is one self-contained experiment cell (model × stream × seed).
	Cell = eval.Cell
	// Runner fans experiment cells out across worker goroutines; results
	// are byte-identical to a sequential run of the same cells.
	Runner = eval.Runner
)

// CellSeed derives a deterministic, scheduling-independent per-cell seed
// from a base seed and the cell's coordinates.
func CellSeed(base int64, dataset, model string) int64 {
	return eval.CellSeed(base, dataset, model)
}

// RunAblation evaluates the DMT ablation variants (see cmd/dmtbench
// -ablation). progress may be nil.
var RunAblation = eval.RunAblation

// SlidingMean smooths a series with a trailing window (Figure 3).
func SlidingMean(series []float64, window int) []float64 {
	return eval.SlidingMean(series, window)
}

// SlidingStd is the matching trailing-window standard deviation.
func SlidingStd(series []float64, window int) []float64 {
	return eval.SlidingStd(series, window)
}
