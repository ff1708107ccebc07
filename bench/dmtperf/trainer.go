package main

import (
	"context"
	"time"

	"repro/internal/serve"
	"repro/internal/stats"
	"repro/internal/stream"
)

// trainer is the serving workloads' training loop, as dmtserve runs it:
// fixed-size batches from a materialised stream, replayed from the start
// when it runs dry, fed to the scorer on a fixed rows/s schedule. Before
// each Learn it scores the batch through PredictBatch, so the run also
// yields the served model's prequential F1.
type trainer struct {
	sc      serve.Scorer
	learner interface{ Learn(stream.Batch) } // sc, or sc as the traced server sees it
	data    stream.Batch
	batch   int
	every   time.Duration // one batch is due every `every`
	next    int           // next batch index into data

	conf  *stats.Confusion
	preds []int
	f1    stats.Running

	lastVersion uint64
	from, to    time.Time // the schedule of the last run
	last        time.Time // return of the run's last Learn
	changes     []change  // structure version moves during run
	lag         []sample  // due to Learn return, ms, one per batch
	rows        int       // rows learned during run
}

func newTrainer(sc serve.Scorer, data stream.Batch, batch, rowsPerSec int) *trainer {
	t := &trainer{
		sc:      sc,
		learner: sc,
		data:    data,
		batch:   batch,
		every:   time.Second * time.Duration(batch) / time.Duration(rowsPerSec),
		conf:    stats.NewConfusion(sc.Schema().NumClasses),
	}
	t.lastVersion, _ = sc.StructureVersion()
	return t
}

func (t *trainer) nextBatch() stream.Batch {
	nb := t.data.Len() / t.batch
	i := t.next % nb
	t.next++
	return t.data.Slice(i*t.batch, (i+1)*t.batch)
}

// warm learns n batches off the clock, before the run.
func (t *trainer) warm(n int) {
	for i := 0; i < n; i++ {
		t.learner.Learn(t.nextBatch())
	}
	t.lastVersion, _ = t.sc.StructureVersion()
}

// run learns n batches on the schedule that starts now. A batch that
// falls behind is learned at once; the schedule does not slip with it.
func (t *trainer) run(ctx context.Context, n int) error {
	sl, err := newSleeper()
	if err != nil {
		return err
	}
	defer sl.close()
	start := time.Now()
	t.from, t.to = start, start.Add(time.Duration(n)*t.every)
	for i := 0; i < n && ctx.Err() == nil; i++ {
		due := start.Add(time.Duration(i) * t.every)
		if err := sl.until(due); err != nil {
			return err
		}
		b := t.nextBatch()
		t.preds = t.sc.PredictBatch(b.X, t.preds)
		t.conf.Reset()
		for k, y := range b.Y {
			t.conf.Add(y, t.preds[k])
		}
		t.f1.Add(t.conf.F1())

		t.learner.Learn(b)
		end := time.Now()
		t.rows += b.Len()
		t.last = end
		t.lag = append(t.lag, sample{at: due, v: ms(end.Sub(due))})
		if v, _ := t.sc.StructureVersion(); v != t.lastVersion {
			t.lastVersion = v
			t.changes = append(t.changes, change{version: v, at: end})
		}
	}
	return nil
}

// lagP99 is the p99 lag from due time to Learn return, as the median of
// five equal time slices of the run.
func (t *trainer) lagP99() float64 { return slicePercentile(t.lag, t.from, t.to, 5, 99) }

// sustained is the rate the trainer kept while serving: rows learned
// per second from the first batch's due time to the last Learn's return.
// It stays at the schedule's rate until Learn, or what blocks it, can no
// longer keep up.
func (t *trainer) sustained() float64 {
	return ratio(float64(t.rows), t.last.Sub(t.from).Seconds())
}
