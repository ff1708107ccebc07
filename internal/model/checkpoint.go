package model

import (
	"io"
	"sync"
)

// Checkpointer is the persistence contract every registered learner
// implements: SaveState streams the learner's complete training state —
// structure, sufficient statistics, detector windows, RNG position —
// as an opaque model-private payload. The matching restore path is a
// LoadState factory registered per model name (registry.RegisterLoader),
// so the persist envelope can reconstruct any model from its name alone,
// exactly as registry.New does for construction.
//
// The contract is strict: a save → load → continue run must be
// byte-identical in predictions and complexity to an uninterrupted run.
// SaveState is called under the same single-writer discipline as Learn.
type Checkpointer interface {
	Classifier
	// SaveState writes the model-private checkpoint payload. Callers
	// normally go through persist.Save, which wraps the payload in the
	// self-describing versioned envelope.
	SaveState(w io.Writer) error
}

// StructureVersioner is implemented by learners whose prediction
// function only changes shape on discrete structural events (splits,
// prunes, replacements, member swaps). StructureVersion returns a
// counter that increments on every such event; it never decreases.
// The serving layer's publish-on-change mode republishes its snapshot
// only when this version moves, instead of after every Learn.
//
// Structureless learners (GLM, Naive Bayes) deliberately do not
// implement it: their parameters drift every batch, so cadence-based
// publishing is the only faithful mode for them.
type StructureVersioner interface {
	StructureVersion() uint64
}

// Broadcast wakes every goroutine waiting for the next change of a
// StructureVersion. Wait hands out a channel that the next Fire closes;
// Fire then forgets it, so the following Wait starts a new round. The
// channel is allocated only when someone waits, which keeps a Fire with
// no waiters (the common case on the Learn path) free of allocations.
// The zero value is ready to use, and all methods are safe for
// concurrent use.
//
// A waiter that must not miss a change calls Wait *before* it reads the
// version: a change that lands after the read then closes the channel
// it already holds.
type Broadcast struct {
	mu sync.Mutex
	ch chan struct{}
}

// Wait returns a channel that is closed by the next Fire.
func (b *Broadcast) Wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

// Fire closes the channel handed out since the last Fire, if any.
// Callers fire after the version they announce is visible to readers.
func (b *Broadcast) Fire() {
	b.mu.Lock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
	b.mu.Unlock()
}
