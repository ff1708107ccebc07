// Package eval implements the paper's evaluation protocol (Section VI):
// prequential (test-then-train) evaluation with batches of 0.1% of the
// stream, the F1 measure, the split/parameter complexity accounting, the
// per-iteration timing of Table V, sliding-window series for Figure 3,
// the model zoo factory, and the table/figure renderers that regenerate
// Tables I–VI and Figures 3–4.
package eval

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/model"
	"repro/internal/stats"
	"repro/internal/stream"
)

// clipProb bounds p away from 0 so the log-loss stays finite.
func clipProb(p float64) float64 {
	const eps = 1e-12
	if p < eps {
		return eps
	}
	if p > 1 {
		return 1
	}
	return p
}

// Options configures a prequential run.
type Options struct {
	// BatchFraction is the batch size as a fraction of the stream length
	// (paper: 0.001).
	BatchFraction float64
	// MinBatchSize floors the batch size (default 1, the pure paper
	// protocol). Scaled-down runs should set ~32: per-batch F1 on one or
	// two rows is pure noise, and the paper's own batches are 45-1025
	// rows at full stream sizes.
	MinBatchSize int
	// MaxIters truncates the run after this many test/train iterations
	// (0 = until the stream ends).
	MaxIters int
	// LogLoss additionally scores each batch's mean negative
	// log-likelihood through the model's Proba (models without a
	// probabilistic interface report 0). Off by default so the timing
	// columns of Table V measure exactly the paper's protocol.
	LogLoss bool
}

func (o Options) withDefaults() Options {
	if o.BatchFraction <= 0 {
		o.BatchFraction = 0.001
	}
	if o.MinBatchSize < 1 {
		o.MinBatchSize = 1
	}
	return o
}

// IterStats are the measurements of one test-then-train iteration.
type IterStats struct {
	// F1 is the paper's F1 measure on this batch (binary F1 for
	// two-class streams, macro F1 otherwise).
	F1 float64
	// Accuracy on this batch.
	Accuracy float64
	// Kappa is Cohen's kappa on this batch (chance-corrected agreement).
	Kappa float64
	// LogLoss is the batch's mean negative log-likelihood under the
	// model's predicted class probabilities (0 unless Options.LogLoss).
	LogLoss float64
	// Splits and Params are the model complexity after training on this
	// batch (paper counting, Section VI-D2).
	Splits float64
	Params float64
	// Seconds is the wall-clock duration of this iteration (test+train).
	Seconds float64
}

// Result is a full prequential run of one model on one stream.
type Result struct {
	Model   string
	Dataset string
	Iters   []IterStats
}

// MeanStd aggregates one metric over the iterations.
func (r Result) MeanStd(metric func(IterStats) float64) (mean, std float64) {
	var acc stats.Running
	for _, it := range r.Iters {
		acc.Add(metric(it))
	}
	return acc.Mean(), acc.Std()
}

// F1 returns the mean and standard deviation of the per-iteration F1 —
// the Table II cells.
func (r Result) F1() (mean, std float64) {
	return r.MeanStd(func(s IterStats) float64 { return s.F1 })
}

// Splits returns the Table III cells.
func (r Result) Splits() (mean, std float64) {
	return r.MeanStd(func(s IterStats) float64 { return s.Splits })
}

// Params returns the Table IV cells.
func (r Result) Params() (mean, std float64) {
	return r.MeanStd(func(s IterStats) float64 { return s.Params })
}

// Seconds returns the Table V cells.
func (r Result) Seconds() (mean, std float64) {
	return r.MeanStd(func(s IterStats) float64 { return s.Seconds })
}

// LogLoss returns the mean and standard deviation of the per-iteration
// mean negative log-likelihood (zero unless the run enabled
// Options.LogLoss on a probabilistic model).
func (r Result) LogLoss() (mean, std float64) {
	return r.MeanStd(func(s IterStats) float64 { return s.LogLoss })
}

// Series extracts one metric as a time series (one value per iteration).
func (r Result) Series(metric func(IterStats) float64) []float64 {
	out := make([]float64, len(r.Iters))
	for i, it := range r.Iters {
		out[i] = metric(it)
	}
	return out
}

// Prequential runs the test-then-train protocol of Section VI-A: at each
// iteration a batch of BatchFraction of the stream is first scored
// (confusion matrix -> F1) and then used to train the model.
func Prequential(c model.Classifier, s stream.Stream, opts Options) (Result, error) {
	return PrequentialContext(context.Background(), c, s, opts)
}

// PrequentialContext is Prequential with cancellation: the context is
// checked before every test-then-train iteration, and a cancelled run
// returns the iterations finished so far together with ctx.Err().
//
// Over a *stream.Memory every batch handed to c is a view of the
// stream's own rows (stream.NextBatchContext), so the run copies and
// allocates nothing per row; c must only read them, as model.Classifier
// requires.
func PrequentialContext(ctx context.Context, c model.Classifier, s stream.Stream, opts Options) (Result, error) {
	opts = opts.withDefaults()
	schema := s.Schema()
	if err := schema.Validate(); err != nil {
		return Result{}, err
	}
	// Fractional batches need the stream length; lazy streams (a CSV file
	// read row by row) have none, so they run at a fixed batch size —
	// MinBatchSize, floored at a value large enough for per-batch F1 to
	// be meaningful.
	const unsizedBatch = 64
	var batch int
	if sized, ok := s.(stream.Sized); ok {
		batch = int(float64(sized.Len()) * opts.BatchFraction)
		if batch < opts.MinBatchSize {
			batch = opts.MinBatchSize
		}
	} else {
		batch = opts.MinBatchSize
		if batch < unsizedBatch {
			batch = unsizedBatch
		}
	}

	res := Result{Model: c.Name(), Dataset: schema.Name}
	conf := stats.NewConfusion(schema.NumClasses)
	// One Proba out-buffer for the whole run: the scoring loop reuses it
	// every row instead of allocating a fresh distribution per call.
	var proba []float64
	pc, probabilistic := c.(model.ProbabilisticClassifier)
	if probabilistic {
		// Serving scorers always expose Proba (with a one-hot fallback),
		// which would turn LogLoss into a bogus clipped-one-hot number
		// for models that have no probabilistic interface. Gate on the
		// wrapped model instead of the wrapper.
		if u, ok := c.(interface{ Unwrap() model.Classifier }); ok {
			_, probabilistic = u.Unwrap().(model.ProbabilisticClassifier)
		}
	}
	if opts.LogLoss && probabilistic {
		proba = make([]float64, schema.NumClasses)
	}
	// Serving scorers predict the whole test batch in one call from one
	// consistent model state; the per-row loop serves plain classifiers.
	bp, _ := c.(interface {
		PredictBatch(X [][]float64, out []int) []int
	})
	var preds []int
	for iter := 0; opts.MaxIters == 0 || iter < opts.MaxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return res, err
		}
		b, err := stream.NextBatchContext(ctx, s, batch)
		if errors.Is(err, stream.ErrEnd) {
			break
		}
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			return res, err
		}
		if err != nil {
			return res, fmt.Errorf("eval: reading batch %d: %w", iter, err)
		}
		start := time.Now()
		conf.Reset()
		if bp != nil {
			preds = bp.PredictBatch(b.X, preds)
			for i, y := range b.Y {
				conf.Add(y, preds[i])
			}
		} else {
			for i, x := range b.X {
				conf.Add(b.Y[i], c.Predict(x))
			}
		}
		testSeconds := time.Since(start).Seconds()
		// Log-loss scoring happens between test and train — still on the
		// pre-train model — but outside the timed region: it is optional
		// instrumentation, and including it silently inflated the Table V
		// Seconds column, which measures exactly the paper's protocol.
		var nll float64
		if proba != nil {
			for i, x := range b.X {
				p := pc.Proba(x, proba)
				if y := b.Y[i]; y >= 0 && y < len(p) {
					nll -= math.Log(clipProb(p[y]))
				}
			}
		}
		start = time.Now()
		c.Learn(b)
		elapsed := testSeconds + time.Since(start).Seconds()

		var logLoss float64
		if proba != nil && b.Len() > 0 {
			logLoss = nll / float64(b.Len())
		}
		comp := c.Complexity()
		res.Iters = append(res.Iters, IterStats{
			F1:       conf.F1(),
			Accuracy: conf.Accuracy(),
			Kappa:    conf.Kappa(),
			LogLoss:  logLoss,
			Splits:   comp.Splits,
			Params:   comp.Params,
			Seconds:  elapsed,
		})
	}
	return res, nil
}

// SlidingMean smooths a series with a trailing window of the given size —
// the "sliding window aggregation with a window size of 20" of Figure 3.
func SlidingMean(series []float64, window int) []float64 {
	w := stats.NewWindow(window)
	out := make([]float64, len(series))
	for i, v := range series {
		w.Add(v)
		out[i] = w.Mean()
	}
	return out
}

// SlidingStd is the matching trailing-window standard deviation (the
// shaded band of Figure 3).
func SlidingStd(series []float64, window int) []float64 {
	w := stats.NewWindow(window)
	out := make([]float64, len(series))
	for i, v := range series {
		w.Add(v)
		out[i] = w.Std()
	}
	return out
}
