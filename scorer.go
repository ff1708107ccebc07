package repro

import (
	"repro/internal/model"
	"repro/internal/serve"
)

// The concurrent serving layer: a Scorer makes a classifier safe for
// concurrent serving — any number of goroutines may call the read
// methods (Predict, Proba, PredictBatch, ProbaBatch, Complexity) while
// a single learning loop calls Learn. This is the online-learning
// serving pattern the paper targets: the model keeps training on the
// live stream while prediction traffic reads it.
//
// Serve builds every registered model behind a SnapshotScorer: reads
// are wait-free — they load an immutable model snapshot through an
// atomic pointer that Learn republishes every WithPublishEvery batches.
// NewScorer wraps any classifier behind a sync.RWMutex instead: always
// applicable, but reads stall while Learn holds the write lock.
type Scorer = serve.Scorer

type (
	// SnapshotScorer is the lock-free snapshot-publishing Scorer.
	SnapshotScorer = serve.SnapshotScorer
	// ModelSnapshot is an immutable serving view of a classifier.
	ModelSnapshot = model.Snapshot
	// Snapshotter is implemented by every registered learner: it exports
	// the immutable serving snapshot the SnapshotScorer publishes.
	Snapshotter = model.Snapshotter
)

// NewScorer wraps a classifier behind a sync.RWMutex. It remains the
// conservative choice for arbitrary classifiers; use NewSnapshotScorer
// (or Serve) for wait-free reads.
func NewScorer(c Classifier) Scorer { return serve.NewLocked(c) }

// NewSnapshotScorer wraps a snapshot-capable classifier (every model
// built by New is one) so reads are wait-free: after each publishEvery
// Learn calls the scorer clones an immutable serving snapshot and
// installs it with an atomic store; Predict/Proba/Complexity read the
// current snapshot without taking any lock. publishEvery <= 1 publishes
// after every Learn, making reads between Learn calls byte-identical to
// a locked scorer over the same model.
func NewSnapshotScorer(c Classifier, publishEvery int) (*SnapshotScorer, error) {
	return serve.NewSnapshot(c, publishEvery)
}

// NewSnapshotOnChangeScorer wraps a snapshot-capable classifier in
// publish-on-change mode: the serving snapshot is republished only when
// the model's tree structure moved, not after every Learn (see
// WithPublishOnChange). Every Scorer also implements
// Checkpoint/Restore, persisting the served model through the same
// envelopes as Save/Load.
func NewSnapshotOnChangeScorer(c Classifier) (*SnapshotScorer, error) {
	return serve.NewSnapshotOnChange(c)
}
