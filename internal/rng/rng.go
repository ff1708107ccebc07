// Package rng provides the checkpointable random-number source shared by
// every learner in the repository. math/rand's default source cannot
// export its internal state, which made saved models resume on a
// different random trajectory than an uninterrupted run. The counted
// Source wraps the exact same underlying generator — so all existing
// random draws are bit-identical — while counting how many times it was
// advanced. Checkpoints persist (seed, draws).
//
// Restore is lazy: it records the state and returns at once, and the
// source re-seeds and replays the counted draws only when it is first
// drawn from. The O(draws) replay therefore moves from every restore to
// the first draw after one — a serving replica, which installs
// checkpoints but never trains, never pays it, while a resumed trainer
// pays it once and then continues the original sequence exactly.
package rng

import "math/rand"

// State is the serialisable state of a Source: the construction seed and
// the number of draws taken since seeding. It is embedded in every
// learner's checkpoint document.
type State struct {
	Seed  int64
	Draws uint64
}

// Source is a rand.Source64 that counts its draws. It delegates to the
// standard library source created from the same seed, so the produced
// sequence is identical to rand.NewSource(seed) — only the bookkeeping
// is added. Like the source it wraps, it is not safe for concurrent use.
type Source struct {
	state State
	src   rand.Source64 // a *pending until the first draw after Restore
}

// NewSource returns a counted source seeded like rand.NewSource(seed).
func NewSource(seed int64) *Source {
	return &Source{state: State{Seed: seed}, src: rand.NewSource(seed).(rand.Source64)}
}

// New returns a *rand.Rand over a fresh counted source plus the source
// itself, the handle checkpoint writers read State from.
func New(seed int64) (*rand.Rand, *Source) {
	s := NewSource(seed)
	return rand.New(s), s
}

// Int63 implements rand.Source, counting one draw.
func (s *Source) Int63() int64 {
	s.state.Draws++
	return s.src.Int63()
}

// Uint64 implements rand.Source64, counting one draw. The standard
// source derives Int63 and Uint64 from the same single step, so replay
// may use either method interchangeably.
func (s *Source) Uint64() uint64 {
	s.state.Draws++
	return s.src.Uint64()
}

// Seed implements rand.Source, restarting the count. On a restored
// source that has not replayed yet it simply drops the pending replay.
func (s *Source) Seed(seed int64) {
	s.state = State{Seed: seed}
	s.src.Seed(seed)
}

// State returns the checkpointable state at this point of the sequence.
// It never triggers a pending replay.
func (s *Source) State() State { return s.state }

// pending stands in for the generator a lazy Restore deferred. Its first
// use swaps the real generator into its owner, so the draw path itself
// carries no check: after that one call the owner never reaches pending
// again.
type pending struct {
	owner *Source
	st    State
}

// materialise seeds the real generator, advances it by the recorded
// draw count and installs it in the owner.
func (p *pending) materialise() rand.Source64 {
	src := rand.NewSource(p.st.Seed).(rand.Source64)
	for i := uint64(0); i < p.st.Draws; i++ {
		src.Uint64()
	}
	p.owner.src = src
	return src
}

func (p *pending) Int63() int64   { return p.materialise().Int63() }
func (p *pending) Uint64() uint64 { return p.materialise().Uint64() }

// Seed re-seeds without replaying: the recorded position is discarded.
func (p *pending) Seed(seed int64) {
	p.owner.src = rand.NewSource(seed).(rand.Source64)
}

// Restore returns a *rand.Rand (and its counted source) positioned at the
// given state: the next draw matches what the checkpointed generator
// would have produced next. Restore itself is O(1) — it only records st.
// The seed-and-replay costs O(draws) at a few ns per step and is paid on
// the first draw, if one ever comes: a replica that installs checkpoints
// without training never draws, so its installs cost nothing here no
// matter how long the trainer has run. A resumed trainer pays the replay
// once; for the ensembles, which draw a Poisson sample per
// member-instance (~lambda+1 steps each), that is seconds of CPU after a
// billion instances — acceptable at restart scale, and a seekable
// counter-based generator would make it O(1) only at the cost of
// changing every model's random trajectory (see ROADMAP).
func Restore(st State) (*rand.Rand, *Source) {
	s := &Source{state: st}
	s.src = &pending{owner: s, st: st}
	return rand.New(s), s
}
