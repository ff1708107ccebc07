package server

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/serve"
)

// ErrClosed is returned to predictions still pending when the server is
// closed.
var ErrClosed = errors.New("server: closed")

// predictJob is one single-row prediction waiting to join a coalesced
// batch. done is closed by the dispatcher after y (or err) is set.
type predictJob struct {
	x    []float64
	y    int
	err  error
	done chan struct{}
}

// coalescer turns concurrent single-row predictions into PredictBatch
// calls. One dispatcher goroutine collects jobs: the first arrival
// opens a batch and everything already queued joins it for free. The
// batch then waits for stragglers only while another single-row predict
// is on its way — admitted by the handler (expect) but not yet queued,
// for instance still decoding its body — and for at most window; it
// flushes the moment that pending count drops to zero or the batch
// reaches maxBatch rows. An isolated request therefore never waits, and
// a non-positive window never waits at all. Before it decides that
// nothing is on its way, the dispatcher yields the processor once:
// under CPU saturation handlers that are runnable but not yet running
// get to queue their rows, which costs an idle server nothing.
//
// The point is not only throughput (one snapshot load / lock
// acquisition amortised over the batch — the scorer's batch path is
// exactly the hot path PR 4 tuned) but consistency: every row in a
// coalesced batch is answered from one model state even while a
// trainer thread keeps mutating the live model.
type coalescer struct {
	scorer   serve.Scorer
	window   time.Duration
	maxBatch int

	jobs      chan *predictJob
	stop      chan struct{} // closed by close(): dispatcher begins shutdown
	stopped   chan struct{} // closed by run() after the final queue drain
	closeOnce sync.Once

	// pending counts expected rows not yet queued; idle (capacity 1) is
	// poked when a row leaves that count without reaching the queue, so
	// a waiting dispatcher rechecks it.
	pending atomic.Int64
	idle    chan struct{}

	batches atomic.Uint64 // PredictBatch dispatches issued
	rows    atomic.Uint64 // rows answered through those dispatches
	waits   atomic.Uint64 // batches that armed the window timer
}

func newCoalescer(sc serve.Scorer, window time.Duration, maxBatch, queue int) *coalescer {
	c := &coalescer{
		scorer:   sc,
		window:   window,
		maxBatch: maxBatch,
		// The job queue mirrors the admission bound: admitted requests
		// always find a slot, so enqueueing never blocks a handler for
		// long, and the select below stays honest.
		jobs:    make(chan *predictJob, queue+maxBatch),
		stop:    make(chan struct{}),
		stopped: make(chan struct{}),
		idle:    make(chan struct{}, 1),
	}
	go c.run()
	return c
}

func (c *coalescer) close() { c.closeOnce.Do(func() { close(c.stop) }) }

// expect counts one admitted single-row predict as on its way to the
// queue. Its caller must then either hand the row to predict with
// expected set or call withdraw, exactly once.
func (c *coalescer) expect() { c.pending.Add(1) }

// withdraw retracts an expect whose row will not be queued.
func (c *coalescer) withdraw() {
	c.pending.Add(-1)
	c.poke()
}

// poke wakes a dispatcher waiting on the pending count.
func (c *coalescer) poke() {
	select {
	case c.idle <- struct{}{}:
	default:
	}
}

// predict submits one row and waits for its coalesced answer. expected
// says the caller announced the row with expect; in-process callers that
// did not pass false and leave the pending count alone.
func (c *coalescer) predict(ctx context.Context, x []float64, expected bool) (int, error) {
	j := &predictJob{x: x, done: make(chan struct{})}
	if expected {
		// Leave the pending count before the job becomes visible, so the
		// dispatcher that receives it already sees the count without it.
		c.pending.Add(-1)
	}
	select {
	case c.jobs <- j:
	case <-c.stop:
		return 0, ErrClosed
	case <-ctx.Done():
		if expected {
			c.poke()
		}
		return 0, ctx.Err()
	}
	// An enqueued job is normally resolved by the dispatcher, but the
	// buffered jobs channel leaves a shutdown race: predict can win the
	// enqueue select against <-c.stop after run()'s final drain has
	// already emptied the queue, and then nothing will ever close done.
	// stopped (closed strictly after that drain) bounds the wait: once
	// it fires, one non-blocking recheck of done tells answered from
	// abandoned.
	select {
	case <-j.done:
		return j.y, j.err
	case <-c.stopped:
		select {
		case <-j.done:
			return j.y, j.err
		default:
			return 0, ErrClosed
		}
	case <-ctx.Done():
		return 0, ctx.Err()
	}
}

// run is the dispatcher loop.
func (c *coalescer) run() {
	var timer *time.Timer
	defer func() {
		if timer != nil {
			timer.Stop()
		}
		// Fail whatever is still queued so no handler waits forever,
		// then close stopped so late enqueuers stop waiting too.
		for {
			select {
			case j := <-c.jobs:
				j.err = ErrClosed
				close(j.done)
			default:
				close(c.stopped)
				return
			}
		}
	}()
	batch := make([]*predictJob, 0, c.maxBatch)
	X := make([][]float64, 0, c.maxBatch)
	preds := make([]int, 0, c.maxBatch)
	for {
		// Block for the first job of the next batch.
		var first *predictJob
		select {
		case first = <-c.jobs:
		case <-c.stop:
			return
		}
		batch = append(batch[:0], first)
		armed, expired, yielded := false, false, false
		for {
			// Take whatever is already queued, for free.
			for len(batch) < c.maxBatch {
				select {
				case j := <-c.jobs:
					batch = append(batch, j)
					continue
				default:
				}
				break
			}
			if len(batch) >= c.maxBatch || c.window <= 0 || expired {
				break
			}
			if c.pending.Load() == 0 {
				if yielded {
					break
				}
				yielded = true
				runtime.Gosched()
				continue
			}
			// Another row is on its way: wait for it, bounded by the
			// window — the latency a caller trades for batch efficiency.
			if !armed {
				armed = true
				c.waits.Add(1)
				if timer == nil {
					timer = time.NewTimer(c.window)
				} else {
					timer.Reset(c.window)
				}
			}
			select {
			case j := <-c.jobs:
				batch = append(batch, j)
			case <-c.idle:
			case <-timer.C:
				expired = true // one last drain, then flush
			case <-c.stop:
				// Flush what we have before exiting: these callers
				// were admitted, they get answers.
				c.flush(batch, X, preds)
				return
			}
		}
		if armed {
			// Since Go 1.23 a stopped timer delivers no stale tick, so
			// the next Reset needs no drain.
			timer.Stop()
		}
		c.flush(batch, X, preds)
	}
}

// flush answers one collected batch through a single PredictBatch call.
func (c *coalescer) flush(batch []*predictJob, X [][]float64, preds []int) {
	if len(batch) == 0 {
		return
	}
	X = X[:0]
	for _, j := range batch {
		X = append(X, j.x)
	}
	preds = c.scorer.PredictBatch(X, preds[:0])
	c.batches.Add(1)
	c.rows.Add(uint64(len(batch)))
	for i, j := range batch {
		j.y = preds[i]
		close(j.done)
	}
}
