package main

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

func TestSustainedRule(t *testing.T) {
	ok := func() stepResult {
		r := stepResult{rate: 1000, scheduled: 1000, sent: 1000}
		for i := 0; i < 1000; i++ {
			r.latency = append(r.latency, sample{v: 1})
		}
		return r
	}
	if !ok().sustained(5) {
		t.Fatal("a clean step is not sustained")
	}
	r := ok()
	r.failed = 1
	if r.sustained(5) {
		t.Error("a step with a failure counts as sustained")
	}
	r = ok()
	r.backlog = 11 // over 1% of 1000
	if r.sustained(5) {
		t.Error("a step that left 1.1% unsent counts as sustained")
	}
	r.backlog = 10
	if !r.sustained(5) {
		t.Error("a step that left exactly 1% unsent is not sustained")
	}
	r = ok()
	for i := 0; i < 20; i++ {
		r.latency[i].v = 6
	}
	if r.sustained(5) {
		t.Error("a step with p99 over the limit counts as sustained")
	}

	slow := ok()
	slow.rate = 2000
	slow.backlog = 500
	fast := ok()
	fast.rate = 500
	if got := maxRate([]stepResult{fast, ok(), slow}, 5); got != 1000 {
		t.Errorf("maxRate = %v, want 1000", got)
	}
	if got := maxRate([]stepResult{slow}, 5); got != 0 {
		t.Errorf("maxRate with no sustained step = %v, want 0", got)
	}
}

func TestLatenessRule(t *testing.T) {
	if !lateOK(maxLateMS) || lateOK(maxLateMS+0.001) {
		t.Errorf("lateOK draws the line elsewhere than %v ms", maxLateMS)
	}
}

func TestArrivalsAreJitteredAndSeeded(t *testing.T) {
	a := arrivals(500, 20*time.Second, 7)
	if n := len(a); n < 9999 || n > 10001 {
		t.Errorf("%d arrivals in 20 s at 500 rps, want one per 2 ms slot", n)
	}
	for i, at := range a {
		if at < 0 || at >= 20*time.Second {
			t.Fatalf("arrival %d at %v is outside the step", i, at)
		}
		if i > 0 && at-a[i-1] < time.Millisecond {
			t.Fatalf("arrivals %d and %d are %v apart, under half the 2 ms spacing", i-1, i, at-a[i-1])
		}
		if off := at - time.Duration(i)*2*time.Millisecond; off < -500*time.Microsecond || off > 500*time.Microsecond {
			t.Fatalf("arrival %d is %v off its slot, over a quarter of the spacing", i, off)
		}
	}
	if b := arrivals(500, 20*time.Second, 7); !slices.Equal(a, b) {
		t.Error("the same seed gave another schedule")
	}
	if c := arrivals(500, 20*time.Second, 8); slices.Equal(a, c) {
		t.Error("another seed gave the same schedule")
	}
}

// The generator keeps its schedule while the system stalls: latencies
// grow from the due time, the generator itself stays on time, and what
// is still queued at the end of the step is backlog, never sent.
func TestRunStepIsOpenLoop(t *testing.T) {
	r, err := runStep(context.Background(), step{rate: 200, dur: 200 * time.Millisecond, seed: 1}, 1, func(_, i int) error {
		time.Sleep(20 * time.Millisecond) // serves 50 rps against 200 due
		if i == 0 {
			return errors.New("refused")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.scheduled != len(arrivals(200, 200*time.Millisecond, 1)) {
		t.Fatalf("scheduled %d, want the seed's arrivals", r.scheduled)
	}
	if r.sent+r.backlog != r.scheduled {
		t.Errorf("sent %d + backlog %d != scheduled %d", r.sent, r.backlog, r.scheduled)
	}
	if r.backlog < r.scheduled/3 {
		t.Errorf("backlog %d of %d: a 4x overloaded step should leave many requests unsent", r.backlog, r.scheduled)
	}
	if r.failed != 1 || len(r.latency) != r.sent-1 {
		t.Errorf("failed %d, %d latencies for %d sent", r.failed, len(r.latency), r.sent)
	}
	// The k-th request sent finishes no earlier than 20(k+1) ms into the
	// step, so its latency counts the time it waited behind the others.
	for j, s := range r.latency {
		k := float64(j + 1) // request 0 failed
		if floor := 20*(k+1) - ms(s.at.Sub(r.from)); s.v < floor-1 {
			t.Errorf("request %d: latency %.1f ms, want >= %.1f", j+1, s.v, floor)
		}
	}
	// A generator that waited for the sends would fall behind by 15 ms a
	// request, hundreds of ms by the end; scheduler jitter stays far below.
	if worst := percentile(r.late, 100); worst > 50 {
		t.Errorf("generator fell %.2f ms behind: it waited on the stalled system", worst)
	}
}
