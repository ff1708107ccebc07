package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"time"
)

// The load generator is an open loop: requests fall due on a schedule
// drawn from the step's seed, whatever the system does, so a stall
// delays every later request and the delay is measured. Each latency
// runs from the due time, not the send time. At most conns requests are
// in flight (one per HTTP connection); the rest wait in the send queue,
// and that wait is part of their latency.
//
// The schedule is the step's fixed spacing with each request moved by up
// to a quarter of it either way. Exact spacing locked the requests into
// one phase against the server's 1 ms coalescing timer, whose wake-up
// precision differs from process to process, and p99 at 500 rps swung
// between 1.8 and 2.5 ms over six runs; Poisson arrivals queued bursts
// behind the two connections, and p99 swung between 3.8 and 21 ms. The
// jittered spacing kept it between 2.3 and 2.5 ms.

// maxLateMS is the generator's own lateness budget: a step whose p99
// lateness (due time to the moment the request entered the send queue)
// exceeds it measured the host's scheduler, not the program.
const maxLateMS = 1.0

// latencyLimitMS is the p99 limit a step must meet to count as
// sustained.
const latencyLimitMS = 5.0

// step is one open-loop phase: a rate for a fixed time, with the seed of
// its schedule.
type step struct {
	rate float64
	dur  time.Duration
	seed int64
}

// stepResult is what one step measured.
type stepResult struct {
	rate      float64
	from, to  time.Time
	scheduled int       // requests due in [from, to)
	sent      int       // requests handed to a connection before to
	failed    int       // sent requests that failed
	backlog   int       // requests still in the send queue at to; never sent
	latency   []sample  // due to response, ms, successful requests only
	late      []float64 // due to send queue, ms
}

// sustained reports whether the step met the service limit: p99 within
// limitMS, no failures, and a send queue at step end of at most 1% of the
// step's requests.
func (r stepResult) sustained(limitMS float64) bool {
	return r.sent > 0 && r.failed == 0 && r.backlog*100 <= r.scheduled &&
		percentile(values(r.latency), 99) <= limitMS
}

// maxRate is the highest step rate that was sustained, 0 when none was.
func maxRate(steps []stepResult, limitMS float64) float64 {
	best := 0.0
	for _, s := range steps {
		if s.sustained(limitMS) && s.rate > best {
			best = s.rate
		}
	}
	return best
}

// lateP99 is the p99 generator lateness over steps. Past maxLateMS the
// run measured the host's scheduler, and it says so on stderr.
func lateP99(steps []stepResult) float64 {
	var late []float64
	for _, s := range steps {
		late = append(late, s.late...)
	}
	p99 := percentile(late, 99)
	if !lateOK(p99) {
		fmt.Fprintf(os.Stderr, "dmtperf: load generator p99 lateness %.3f ms exceeds %.0f ms; latencies of this run are the host's\n", p99, maxLateMS)
	}
	return p99
}

// lateOK is the validity rule of an open-loop run.
func lateOK(p99MS float64) bool { return p99MS <= maxLateMS }

// arrivals draws the schedule of a step: the offsets in [0, dur) at
// which requests fall due, in order.
func arrivals(rate float64, dur time.Duration, seed int64) []time.Duration {
	rng := rand.New(rand.NewSource(seed))
	gap := float64(time.Second) / rate
	var out []time.Duration
	for i := 0; ; i++ {
		at := time.Duration(max(0, gap*(float64(i)+(rng.Float64()-0.5)/2)))
		if at >= dur {
			return out
		}
		out = append(out, at)
	}
}

// runStep drives one open-loop step over conns connections; send issues
// request i on connection c and reports whether it failed.
func runStep(ctx context.Context, st step, conns int, send func(c, i int) error) (stepResult, error) {
	sl, err := newSleeper()
	if err != nil {
		return stepResult{}, err
	}
	defer sl.close()
	dues := arrivals(st.rate, st.dur, st.seed)
	n := len(dues)
	from := time.Now()
	res := stepResult{rate: st.rate, from: from, to: from.Add(st.dur), scheduled: n}
	type job struct {
		i   int
		due time.Time
	}
	// Sized to the whole step so the generator never waits on a slow
	// system: the queue is where the backlog of an overloaded step sits.
	queue := make(chan job, n)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range queue {
				if !time.Now().Before(res.to) || ctx.Err() != nil {
					mu.Lock()
					res.backlog++
					mu.Unlock()
					continue
				}
				err := send(c, j.i)
				done := time.Now()
				mu.Lock()
				res.sent++
				if err != nil {
					res.failed++
				} else {
					res.latency = append(res.latency, sample{at: j.due, v: ms(done.Sub(j.due))})
				}
				mu.Unlock()
			}
		}()
	}
	for i := 0; i < n && ctx.Err() == nil && err == nil; i++ {
		due := from.Add(dues[i])
		if err = sl.until(due); err == nil {
			res.late = append(res.late, ms(time.Since(due)))
			queue <- job{i: i, due: due}
		}
	}
	close(queue)
	wg.Wait()
	return res, err
}
