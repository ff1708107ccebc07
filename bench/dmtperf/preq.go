package main

import (
	"context"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/datasets"
	"repro/internal/eval"
	"repro/internal/model"
	"repro/internal/stream"
)

// The preq-* workloads run the paper's protocol (Section VI-A):
// prequential test-then-train with batches of 0.1% of the full Table I
// stream, on streams materialised in set-up. One series is one learner
// over one stream; one pass runs every learner of Table V's comparison
// over every stream of the set, each from a fresh model. An untimed
// warm-up runs every learner over the first 1% of every stream; then
// passes repeat, at least minPasses of them and more while the next one
// fits in the run time.
//
// Each series runs between two gauge samples and its times are scaled
// to the reference host speed by the mean of the two (gauge.go). Per
// series the run takes the median over the passes, which drops a pass
// that a host hiccup landed in. It then summarises the series by their
// geometric mean, so each series weighs the same whatever its length:
// the per-seed cost of one learner on one stream (DMT on Agrawal grows
// 21 to 33 splits across seeds) moves the summary by a ninth of its own
// change.

const (
	minPasses  = 3
	warmShare  = 100 // the warm-up runs over the first 1/warmShare of each stream
	preqBatchF = 0.001
)

// preqLearners are the learners of a pass and the layer name their
// traced spans carry.
var preqLearners = []struct{ name, layer string }{
	{"DMT", "core"},
	{"VFDT (MC)", "hoeffding"},
	{"Forest Ens.", "ensemble"},
}

type preqStream struct {
	schema stream.Schema
	data   stream.Batch
}

type preqRun struct {
	streams []preqStream
	tr      *tracer
	gauge   *gauge
}

// preqSetup materialises the named Table I streams at full size.
func preqSetup(names ...string) setupFunc {
	return func(seed int64, _ time.Duration, tr *tracer, g *gauge) (instance, error) {
		p := &preqRun{tr: tr, gauge: g}
		for k, name := range names {
			e, err := datasets.ByName(name)
			if err != nil {
				return nil, err
			}
			schema, data, err := materialise(name, seed*1_000_003+int64(k), e.Samples)
			if err != nil {
				return nil, err
			}
			if data.Len() != e.Samples {
				return nil, fmt.Errorf("%s: materialised %d of %d rows", name, data.Len(), e.Samples)
			}
			p.streams = append(p.streams, preqStream{schema: schema, data: data})
		}
		return p, nil
	}
}

func (p *preqRun) close() {}

// series is one learner's prequential run over one stream, from a
// fresh model.
type series struct {
	name    string // learner on stream
	layer   string
	rows    int
	wall    time.Duration
	speed   float64   // the host's around the series, as a share of the reference
	iterMS  []float64 // per-iteration test+train time (Table V)
	f1      float64   // mean F1 over iterations
	splits  float64   // mean splits over iterations
	changes uint64    // structure version moves
}

// protocol is the paper's: batches of 0.1% of the full stream, also
// when only a prefix of it runs.
func protocol(s preqStream) eval.Options {
	return eval.Options{BatchFraction: preqBatchF, MinBatchSize: int(preqBatchF * float64(s.data.Len()))}
}

// warm runs every learner over the first rows of every stream, untimed
// and untraced, so that the first timed series does not pay for first
// use.
func (p *preqRun) warm(ctx context.Context) error {
	for _, l := range preqLearners {
		for _, s := range p.streams {
			c, err := eval.NewClassifier(l.name, s.schema, modelSeed)
			if err != nil {
				return err
			}
			prefix := s.data.Slice(0, max(s.data.Len()/warmShare, 1))
			if _, err := eval.PrequentialContext(ctx, c, stream.NewMemory(s.schema, prefix), protocol(s)); err != nil {
				return fmt.Errorf("warm-up of %s on %s: %w", l.name, s.schema.Name, err)
			}
		}
	}
	return nil
}

// series runs one learner over one stream. A gauge sample must directly
// precede it; the one it takes after the run also collects the run's
// garbage, so the next series starts from the same heap.
func (p *preqRun) series(ctx context.Context, name, layer string, s preqStream) (series, error) {
	sr := series{name: name + " on " + s.schema.Name, layer: layer, rows: s.data.Len()}
	c, err := eval.NewClassifier(name, s.schema, modelSeed)
	if err != nil {
		return sr, err
	}
	sv, _ := c.(model.StructureVersioner)
	var v0 uint64
	if sv != nil {
		v0 = sv.StructureVersion()
	}
	learner := c
	var evalSpan uint64
	if p.tr != nil {
		evalSpan = p.tr.id()
		learner = &tracedLearner{Classifier: c, tr: p.tr, layer: layer, parent: &evalSpan}
	}
	var res eval.Result
	sr.wall, sr.speed, err = p.gauge.timed(func() (err error) {
		var start int64
		if p.tr != nil {
			start = p.tr.now()
		}
		res, err = eval.PrequentialContext(ctx, learner, stream.NewMemory(s.schema, s.data), protocol(s))
		if p.tr != nil {
			p.tr.add(span{ID: evalSpan, Name: "eval.prequential", Start: start, End: p.tr.now(), N: int64(sr.rows)})
		}
		return err
	})
	if err != nil {
		return sr, err
	}
	for _, it := range res.Iters {
		sr.iterMS = append(sr.iterMS, it.Seconds*1000)
	}
	sr.f1, _ = res.F1()
	sr.splits, _ = res.Splits()
	if sv != nil {
		sr.changes = sv.StructureVersion() - v0
	}
	return sr, nil
}

func (p *preqRun) pass(ctx context.Context) ([]series, error) {
	var out []series
	p.gauge.sample()
	for _, l := range preqLearners {
		for _, s := range p.streams {
			sr, err := p.series(ctx, l.name, l.layer, s)
			if err != nil {
				return nil, fmt.Errorf("%s on %s: %w", l.name, s.schema.Name, err)
			}
			out = append(out, sr)
		}
	}
	return out, nil
}

func (p *preqRun) measure(ctx context.Context, d time.Duration) (*report, error) {
	rep := newReport()
	if err := p.warm(ctx); err != nil {
		return nil, err
	}
	start := time.Now()
	var first []series
	// Per series, one value per pass, at the reference speed, and the
	// host's speed.
	var rates, p50s, p90s, speeds [][]float64
	var last time.Duration // of the latest pass
	for pass := 0; pass < minPasses || time.Since(start)+last <= d; pass++ {
		passStart := time.Now()
		ss, err := p.pass(ctx)
		if err != nil {
			return nil, err
		}
		last = time.Since(passStart)
		if first == nil {
			first = ss
			rates, p50s, p90s, speeds = make([][]float64, len(ss)), make([][]float64, len(ss)), make([][]float64, len(ss)), make([][]float64, len(ss))
		}
		for k, sr := range ss {
			rep.attempted += int64(len(sr.iterMS))
			rep.rows += float64(sr.rows)
			// The protocol is deterministic: every pass must reproduce
			// the first pass's quality exactly.
			if sr.f1 != first[k].f1 || sr.splits != first[k].splits {
				rep.fail("%s: pass %d gave F1 %v splits %v, pass 0 gave F1 %v splits %v",
					sr.name, pass, sr.f1, sr.splits, first[k].f1, first[k].splits)
			}
			rates[k] = append(rates[k], float64(sr.rows)/sr.wall.Seconds()/sr.speed)
			p50s[k] = append(p50s[k], percentile(sr.iterMS, 50)*sr.speed)
			p90s[k] = append(p90s[k], percentile(sr.iterMS, 90)*sr.speed)
			speeds[k] = append(speeds[k], sr.speed)
		}
	}
	for k, sr := range first {
		fmt.Fprintf(os.Stderr, "dmtperf: %-28s rows/s %s at host speed %s\n", sr.name, list(rates[k], "%.0f"), list(speeds[k], "%.2f"))
	}
	rep.e2e["rows_per_s"] = geomean(medians(rates))
	rep.e2e["op_p50_ms"] = geomean(medians(p50s))
	rep.e2e["op_p90_ms"] = geomean(medians(p90s))
	var f1, splits []float64
	var changes uint64
	for _, sr := range first {
		f1 = append(f1, sr.f1)
		if sr.layer == "core" {
			splits = append(splits, sr.splits)
			changes += sr.changes
		}
	}
	rep.e2e["f1"] = mean(f1)
	rep.layer["core.mean_splits"] = mean(splits)
	rep.layer["core.structure_changes"] = float64(changes)
	return rep, nil
}

func medians(xss [][]float64) []float64 {
	out := make([]float64, len(xss))
	for i, xs := range xss {
		out[i] = median(xs)
	}
	return out
}

// list formats xs for a diagnostic line.
func list(xs []float64, format string) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf(format, x)
	}
	return strings.Join(parts, " ")
}
