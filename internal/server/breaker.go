package server

import (
	"sync"
	"sync/atomic"
	"time"
)

// BreakerState is the circuit breaker's state. The breaker protects a
// caller from hammering a failing peer: consecutive failures open the
// circuit (calls are refused locally), a cooldown later one half-open
// probe is allowed through, and its outcome closes or re-opens the
// circuit.
type BreakerState int32

const (
	// BreakerClosed passes every call (the healthy state).
	BreakerClosed BreakerState = iota
	// BreakerOpen refuses every call until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe; success closes the circuit,
	// failure re-opens it for another cooldown.
	BreakerHalfOpen
)

// String implements fmt.Stringer.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// breaker is the circuit-breaker core behind the Follower (one breaker
// on its trainer). The zero value is not usable; build with newBreaker.
type breaker struct {
	threshold int           // consecutive failures that open the circuit
	cooldown  time.Duration // open -> half-open delay
	now       func() time.Time
	onChange  func(from, to BreakerState) // called outside mu-protected reads via state atomic; must not call back into the breaker

	state atomic.Int32

	mu       sync.Mutex
	failures int
	openedAt time.Time
	probing  bool // a half-open probe is in flight
	opens    uint64
}

func newBreaker(threshold int, cooldown time.Duration, onChange func(from, to BreakerState)) *breaker {
	if threshold <= 0 {
		threshold = 5
	}
	if cooldown <= 0 {
		cooldown = 2 * time.Second
	}
	return &breaker{threshold: threshold, cooldown: cooldown, now: time.Now, onChange: onChange}
}

// State returns the current state without blocking on transitions.
func (b *breaker) State() BreakerState { return BreakerState(b.state.Load()) }

// Opens returns how many times the circuit has opened.
func (b *breaker) Opens() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.opens
}

// set transitions the state; callers hold b.mu.
func (b *breaker) set(to BreakerState) {
	from := BreakerState(b.state.Load())
	if from == to {
		return
	}
	b.state.Store(int32(to))
	if to == BreakerOpen {
		b.opens++
		b.openedAt = b.now()
	}
	if b.onChange != nil {
		b.onChange(from, to)
	}
}

// allow reports whether a call may proceed. In the open state it
// returns false until the cooldown elapses, then admits exactly one
// half-open probe (concurrent callers are refused until that probe
// resolves via success or failure).
func (b *breaker) allow() bool {
	if b.State() == BreakerClosed {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch BreakerState(b.state.Load()) {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.cooldown {
			return false
		}
		b.set(BreakerHalfOpen)
		b.probing = true
		return true
	case BreakerHalfOpen:
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
	return true
}

// success records a successful call: the circuit closes and the failure
// streak resets.
func (b *breaker) success() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures = 0
	b.probing = false
	b.set(BreakerClosed)
}

// failure records a failed call: a half-open probe re-opens the circuit
// immediately; in the closed state the streak grows and opens the
// circuit at the threshold.
func (b *breaker) failure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probing = false
	switch BreakerState(b.state.Load()) {
	case BreakerHalfOpen:
		b.set(BreakerOpen)
	case BreakerClosed:
		b.failures++
		if b.failures >= b.threshold {
			b.set(BreakerOpen)
		}
	}
}
