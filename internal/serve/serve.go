// Package serve is the concurrent model-serving layer behind the public
// repro.Serve / repro.NewScorer API: three interchangeable Scorer
// implementations that let prediction traffic read a model while a
// learning loop keeps training it on the live stream — the deployment
// mode the paper targets (an interpretable model that never stops
// learning while it serves).
//
//   - LockScorer guards one classifier with a sync.RWMutex: simple,
//     always applicable, but every read waits while Learn holds the
//     write lock.
//   - SnapshotScorer publishes an immutable serving snapshot through an
//     atomic pointer after Learn (clone-on-publish, with a configurable
//     cadence): Predict/Proba/Complexity are wait-free and never blocked
//     by training, at the cost of a bounded staleness window (at most
//     PublishEvery batches) and a clone per publish.
//   - ShardedScorer hashes rows across N independent learner replicas:
//     multi-core serving and training where no single model instance is
//     a bottleneck, at the cost of each replica seeing 1/N of the data.
package serve

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/stream"
)

// Scorer is the serving contract: a Classifier that is safe for
// concurrent use — any number of goroutines may call the read methods
// (Predict, Proba, their batch forms, Complexity, Name) while one
// learning loop calls Learn.
type Scorer interface {
	model.Classifier
	// Proba returns class probabilities; models without a probabilistic
	// interface degrade to a one-hot vector of Predict (see OneHot).
	Proba(x []float64, out []float64) []float64
	// PredictBatch predicts every row of X into out (grown as needed)
	// and returns it. The whole batch is served from one consistent
	// model state.
	PredictBatch(X [][]float64, out []int) []int
	// ProbaBatch writes per-row probability vectors into out and
	// returns it, from one consistent model state. The row slice is
	// grown to len(X) as needed; each row follows Proba's contract —
	// nil allocates, otherwise it must cover the model's class count
	// (rows returned by a previous call on the same scorer do).
	ProbaBatch(X [][]float64, out [][]float64) [][]float64
	// Schema returns the stream schema the served model was built for,
	// so callers (the network serving tier in particular) can validate
	// request row width before dispatching a prediction instead of
	// panicking or silently mis-scoring. Wrapping a classifier that does
	// not expose a schema — only possible for external learners — yields
	// the zero Schema.
	Schema() stream.Schema
	// StructureVersion reports the served model's structure version (see
	// model.StructureVersioner) and whether the model tracks one. The
	// ShardedScorer sums its replicas; the SnapshotScorer reports the
	// version of the published snapshot (what readers actually serve).
	StructureVersion() (uint64, bool)
	// Changed returns a channel that is closed once StructureVersion
	// moves after the call (and on Restore). Take it before reading the
	// version and no change can slip between the read and the wait —
	// this is what lets the network tier park a long poll until the
	// next publish instead of polling for it.
	Changed() <-chan struct{}
	// Unwrap returns the live underlying classifier (the first replica
	// for a ShardedScorer). Callers must not use it concurrently with
	// the Scorer.
	Unwrap() model.Classifier
	// Checkpoint writes the scorer's full model state: one persist
	// envelope for the single-model scorers, a persist bundle of
	// per-shard envelopes for the ShardedScorer. The capture is
	// consistent — it serialises against Learn, so no checkpoint ever
	// straddles a batch.
	Checkpoint(w io.Writer) error
	// Restore replaces the scorer's model state from a Checkpoint
	// written by an identically configured scorer (same model name;
	// same shard count for the ShardedScorer). Reads served after
	// Restore returns see the restored state.
	Restore(r io.Reader) error
}

// OneHot writes the one-hot probability fallback for a non-probabilistic
// model's prediction y into out: out keeps its length when it already
// covers y and is grown in place to exactly y+1 entries otherwise (no
// throwaway allocation when cap(out) suffices).
func OneHot(y int, out []float64) []float64 {
	for len(out) <= y {
		out = append(out, 0)
	}
	for i := range out {
		out[i] = 0
	}
	out[y] = 1
	return out
}

// growRows ensures out has exactly n rows, reusing existing backing.
func growRows(out [][]float64, n int) [][]float64 {
	if cap(out) < n {
		next := make([][]float64, n)
		copy(next, out)
		return next
	}
	return out[:n]
}

// growInts ensures out has exactly n entries, reusing existing backing.
func growInts(out []int, n int) []int {
	if cap(out) < n {
		return make([]int, n)
	}
	return out[:n]
}

// --- RWMutex scorer -------------------------------------------------

// LockScorer makes a classifier safe for concurrent serving with a
// sync.RWMutex: reads take the read lock, Learn the write lock. The
// wrapped classifier's read methods must be read-only, which holds for
// every model in this repository.
type LockScorer struct {
	mu     sync.RWMutex
	inner  model.Classifier
	pc     model.ProbabilisticClassifier // nil when inner is not probabilistic
	schema stream.Schema                 // zero when inner exposes no schema
	sv     model.StructureVersioner      // nil when inner tracks no structure version
	change model.Broadcast
}

// NewLocked wraps a classifier in a LockScorer.
func NewLocked(c model.Classifier) *LockScorer {
	s := &LockScorer{inner: c}
	s.pc, _ = c.(model.ProbabilisticClassifier)
	s.sv, _ = c.(model.StructureVersioner)
	if sp, ok := c.(schemaProvider); ok {
		s.schema = sp.Schema()
	}
	return s
}

// schemaProvider is the schema accessor every registered learner exposes
// (persist.Save requires it to write loadable envelopes).
type schemaProvider interface {
	Schema() stream.Schema
}

// Unwrap implements Scorer.
func (s *LockScorer) Unwrap() model.Classifier { return s.inner }

// Learn implements model.Classifier under the write lock, firing
// Changed when the batch moved the structure version.
func (s *LockScorer) Learn(b stream.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.sv == nil {
		s.inner.Learn(b)
		return
	}
	before := s.sv.StructureVersion()
	s.inner.Learn(b)
	if s.sv.StructureVersion() != before {
		s.change.Fire()
	}
}

// Predict implements model.Classifier under a read lock.
func (s *LockScorer) Predict(x []float64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Predict(x)
}

// Proba returns class probabilities under a read lock, with the OneHot
// fallback for non-probabilistic models.
func (s *LockScorer) Proba(x []float64, out []float64) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pc != nil {
		return s.pc.Proba(x, out)
	}
	return OneHot(s.inner.Predict(x), out)
}

// Schema implements Scorer (the wrapped model's schema, zero when the
// classifier exposes none).
func (s *LockScorer) Schema() stream.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema
}

// StructureVersion implements Scorer.
func (s *LockScorer) StructureVersion() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sv == nil {
		return 0, false
	}
	return s.sv.StructureVersion(), true
}

// Changed implements Scorer.
func (s *LockScorer) Changed() <-chan struct{} { return s.change.Wait() }

// PredictBatch implements Scorer under one read lock for the whole
// batch, so the rows are served from one consistent model state.
// Empty (or nil) batches return an empty result without taking the lock.
func (s *LockScorer) PredictBatch(X [][]float64, out []int) []int {
	if len(X) == 0 {
		return growInts(out, 0)
	}
	out = growInts(out, len(X))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, x := range X {
		out[i] = s.inner.Predict(x)
	}
	return out
}

// ProbaBatch implements Scorer under one read lock.
func (s *LockScorer) ProbaBatch(X [][]float64, out [][]float64) [][]float64 {
	if len(X) == 0 {
		return growRows(out, 0)
	}
	out = growRows(out, len(X))
	s.mu.RLock()
	defer s.mu.RUnlock()
	for i, x := range X {
		if s.pc != nil {
			out[i] = s.pc.Proba(x, out[i])
		} else {
			out[i] = OneHot(s.inner.Predict(x), out[i])
		}
	}
	return out
}

// Complexity implements model.Classifier under a read lock.
func (s *LockScorer) Complexity() model.Complexity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Complexity()
}

// Name implements model.Classifier.
func (s *LockScorer) Name() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Name()
}

// Checkpoint implements Scorer: the wrapped model as one envelope,
// captured under the write lock so it never straddles a Learn.
func (s *LockScorer) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return persist.Save(w, s.inner)
}

// Restore implements Scorer, swapping in the model reconstructed from
// the envelope. The checkpointed model must match the served one.
func (s *LockScorer) Restore(r io.Reader) error {
	c, err := persist.Load(r)
	if err != nil {
		return err
	}
	return s.install(c)
}

// install swaps in an already-reconstructed model (the shared tail of
// Restore, also used by the ShardedScorer's restore).
func (s *LockScorer) install(c model.Classifier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Name() != s.inner.Name() {
		return fmt.Errorf("serve: restore %q into a scorer serving %q", c.Name(), s.inner.Name())
	}
	s.inner = c
	s.pc, _ = c.(model.ProbabilisticClassifier)
	s.sv, _ = c.(model.StructureVersioner)
	if sp, ok := c.(schemaProvider); ok {
		s.schema = sp.Schema()
	}
	s.change.Fire()
	return nil
}

// --- Snapshot scorer ------------------------------------------------

// published is one immutable serving state behind the atomic pointer.
type published struct {
	snap  model.Snapshot
	proba model.ProbaSnapshot // nil when the snapshot is not probabilistic
	// schema and version are frozen at publish time, so the metadata
	// accessors are as wait-free as the reads they describe.
	schema     stream.Schema
	version    uint64
	hasVersion bool
}

// SnapshotScorer serves reads from an immutable model snapshot published
// through an atomic pointer: Predict/Proba/Complexity never take a lock
// and are never blocked by a concurrent Learn. Learn trains the live
// model under a mutex (one writer at a time) and republishes every
// PublishEvery batches, so reads see a state at most PublishEvery-1
// Learn calls stale. With PublishEvery == 1 (the default) a snapshot
// read between Learn calls is identical to a locked read.
//
// The alternative publish-on-change mode (NewSnapshotOnChange /
// WithPublishOnChange) republishes only when the model's structure
// version moved — a split, prune, replacement or member swap — instead
// of after every batch. Tree shape is what snapshot clones pay for, and
// structural events are orders of magnitude rarer than batches, so the
// publish rate (and the clone cost) collapses; the trade-off is that
// leaf-level parameter drift between structural events is not visible
// to readers until the next event or a forced Publish.
type SnapshotScorer struct {
	mu           sync.Mutex // serialises Learn, Publish and Restore
	live         model.Classifier
	src          model.Snapshotter
	publishEvery int
	sincePublish int
	onChange     bool
	sv           model.StructureVersioner // nil when the model tracks no structure version
	lastVersion  uint64
	publishes    atomic.Uint64
	cur          atomic.Pointer[published]
	change       model.Broadcast // fired when the published version moves

	// Checkpoint capture cache, publish-on-change mode only: the full
	// envelope bytes of the last capture and the live structure version
	// they were taken at. While the version has not moved, Checkpoint
	// re-serves these bytes instead of re-encoding full state — the same
	// staleness contract the published snapshot already has in this mode
	// (leaf drift between structural events is not visible either).
	ckptRaw     []byte
	ckptVersion uint64
}

// NewSnapshot wraps a snapshot-capable classifier. publishEvery <= 1
// publishes after every Learn; larger values amortise the clone cost of
// expensive models over that many batches. It fails when the classifier
// does not implement model.Snapshotter (every registered learner does).
func NewSnapshot(c model.Classifier, publishEvery int) (*SnapshotScorer, error) {
	src, ok := c.(model.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("serve: %s does not implement model.Snapshotter; use NewLocked", c.Name())
	}
	if publishEvery < 1 {
		publishEvery = 1
	}
	s := &SnapshotScorer{live: c, src: src, publishEvery: publishEvery}
	s.sv, _ = c.(model.StructureVersioner)
	s.publish()
	return s, nil
}

// NewSnapshotOnChange wraps a snapshot-capable classifier in
// publish-on-change mode: the snapshot is republished only when the
// model's StructureVersion moves (see the type comment). It fails when
// the classifier implements neither model.Snapshotter nor
// model.StructureVersioner — the structureless GLM and Naive Bayes
// baselines deliberately lack a structure version, since their
// parameters drift every batch and only cadence publishing is faithful
// for them.
func NewSnapshotOnChange(c model.Classifier) (*SnapshotScorer, error) {
	src, ok := c.(model.Snapshotter)
	if !ok {
		return nil, fmt.Errorf("serve: %s does not implement model.Snapshotter; use NewLocked", c.Name())
	}
	sv, ok := c.(model.StructureVersioner)
	if !ok {
		return nil, fmt.Errorf("serve: %s does not implement model.StructureVersioner; use NewSnapshot with a publish cadence", c.Name())
	}
	s := &SnapshotScorer{live: c, src: src, publishEvery: 1, onChange: true, sv: sv, lastVersion: sv.StructureVersion()}
	s.publish()
	return s, nil
}

// publish captures and installs a fresh snapshot, firing Changed when
// the published version moved; callers hold s.mu (or, in the
// constructor, exclusive ownership).
func (s *SnapshotScorer) publish() {
	p := &published{snap: s.src.Snapshot()}
	p.proba, _ = p.snap.(model.ProbaSnapshot)
	if sp, ok := s.live.(schemaProvider); ok {
		p.schema = sp.Schema()
	}
	if s.sv != nil {
		p.version, p.hasVersion = s.sv.StructureVersion(), true
	}
	prev := s.cur.Swap(p)
	s.sincePublish = 0
	s.publishes.Add(1)
	if prev != nil && (p.version != prev.version || p.hasVersion != prev.hasVersion) {
		s.change.Fire()
	}
}

// Publish forces an immediate snapshot publish outside the cadence.
func (s *SnapshotScorer) Publish() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.publish()
}

// Publishes returns the lifetime snapshot publish count (including the
// constructor's initial publish) — the quantity the publish-on-change
// mode collapses.
func (s *SnapshotScorer) Publishes() uint64 { return s.publishes.Load() }

// Unwrap implements Scorer.
func (s *SnapshotScorer) Unwrap() model.Classifier { return s.live }

// Learn implements model.Classifier: train the live model, then
// republish — on the batch cadence, or in publish-on-change mode only
// when the structure version moved.
func (s *SnapshotScorer) Learn(b stream.Batch) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live.Learn(b)
	if s.onChange {
		if v := s.sv.StructureVersion(); v != s.lastVersion {
			s.lastVersion = v
			s.publish()
		}
		return
	}
	s.sincePublish++
	if s.sincePublish >= s.publishEvery {
		s.publish()
	}
}

// checkpointRaw returns the scorer's current full envelope bytes. In
// publish-on-change mode the bytes are cached keyed by the live
// structure version, so repeated checkpoints between structural events
// cost a version check instead of a full re-encode; cadence and default
// modes always capture fresh (leaf parameters drift without the version
// moving, and those modes promise full-fidelity checkpoints). Callers
// hold s.mu.
func (s *SnapshotScorer) checkpointRaw() ([]byte, error) {
	if s.onChange && s.ckptRaw != nil && s.sv.StructureVersion() == s.ckptVersion {
		return s.ckptRaw, nil
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, s.live); err != nil {
		return nil, err
	}
	if s.onChange {
		s.ckptRaw, s.ckptVersion = buf.Bytes(), s.sv.StructureVersion()
	}
	return buf.Bytes(), nil
}

// Checkpoint implements Scorer: the live model as one envelope,
// captured under the writer mutex so it is snapshot-consistent with the
// published state (no Learn can interleave). In publish-on-change mode
// an unchanged StructureVersion re-serves the cached capture.
func (s *SnapshotScorer) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := s.checkpointRaw()
	if err != nil {
		return err
	}
	_, err = w.Write(raw)
	return err
}

// Restore implements Scorer: the live model is replaced by the
// checkpointed one and a fresh snapshot is published immediately, so
// reads after Restore serve the restored state.
func (s *SnapshotScorer) Restore(r io.Reader) error {
	c, err := persist.Load(r)
	if err != nil {
		return err
	}
	return s.install(c)
}

// install swaps in an already-reconstructed model and republishes (the
// shared tail of Restore, also used by the ShardedScorer's restore).
func (s *SnapshotScorer) install(c model.Classifier) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Name() != s.live.Name() {
		return fmt.Errorf("serve: restore %q into a scorer serving %q", c.Name(), s.live.Name())
	}
	src, ok := c.(model.Snapshotter)
	if !ok {
		return fmt.Errorf("serve: restored %s does not implement model.Snapshotter", c.Name())
	}
	sv, hasSV := c.(model.StructureVersioner)
	if s.onChange {
		if !hasSV {
			return fmt.Errorf("serve: restored %s does not implement model.StructureVersioner", c.Name())
		}
		s.lastVersion = sv.StructureVersion()
	}
	s.sv = sv
	s.live, s.src = c, src
	// The capture cache described the replaced state; the next
	// Checkpoint re-encodes.
	s.ckptRaw = nil
	s.publish()
	s.change.Fire()
	return nil
}

// Predict implements model.Classifier, wait-free.
func (s *SnapshotScorer) Predict(x []float64) int {
	return s.cur.Load().snap.Predict(x)
}

// Proba implements Scorer, wait-free, with the OneHot fallback.
func (s *SnapshotScorer) Proba(x []float64, out []float64) []float64 {
	p := s.cur.Load()
	if p.proba != nil {
		return p.proba.Proba(x, out)
	}
	return OneHot(p.snap.Predict(x), out)
}

// Schema implements Scorer, wait-free (the schema frozen at publish
// time; zero when the model exposes none).
func (s *SnapshotScorer) Schema() stream.Schema { return s.cur.Load().schema }

// StructureVersion implements Scorer with the version of the published
// snapshot — the structure readers actually serve, which in cadence or
// on-change mode can trail the live model's version.
func (s *SnapshotScorer) StructureVersion() (uint64, bool) {
	p := s.cur.Load()
	return p.version, p.hasVersion
}

// Changed implements Scorer: closed on the next publish that moves the
// published version, or on Restore.
func (s *SnapshotScorer) Changed() <-chan struct{} { return s.change.Wait() }

// PredictBatch implements Scorer: the whole batch is served from the one
// snapshot loaded at entry, wait-free. Empty (or nil) batches return an
// empty result without loading the snapshot.
func (s *SnapshotScorer) PredictBatch(X [][]float64, out []int) []int {
	if len(X) == 0 {
		return growInts(out, 0)
	}
	out = growInts(out, len(X))
	snap := s.cur.Load().snap
	for i, x := range X {
		out[i] = snap.Predict(x)
	}
	return out
}

// ProbaBatch implements Scorer from one snapshot, wait-free.
func (s *SnapshotScorer) ProbaBatch(X [][]float64, out [][]float64) [][]float64 {
	if len(X) == 0 {
		return growRows(out, 0)
	}
	out = growRows(out, len(X))
	p := s.cur.Load()
	for i, x := range X {
		if p.proba != nil {
			out[i] = p.proba.Proba(x, out[i])
		} else {
			out[i] = OneHot(p.snap.Predict(x), out[i])
		}
	}
	return out
}

// Complexity implements model.Classifier with the complexity of the
// published snapshot (the state readers actually serve).
func (s *SnapshotScorer) Complexity() model.Complexity {
	return s.cur.Load().snap.Complexity()
}

// Name implements model.Classifier.
func (s *SnapshotScorer) Name() string { return s.cur.Load().snap.Name() }

// --- Sharded scorer -------------------------------------------------

// ShardedScorer partitions work across N independent Scorer replicas by
// hashing each row's feature values: Learn routes every row to its
// shard, reads route the queried row the same way, so a row is always
// served by the replica that trained on its hash bucket. Replicas are
// fully independent (no shared state), which makes both training and
// serving scale across cores — at the cost of each replica learning
// from 1/N of the stream, so accuracy on small streams trails a single
// model. Complexity sums the replicas.
type ShardedScorer struct {
	// mu serialises Learn, Checkpoint and Restore against each other, so
	// a checkpoint taken under concurrent training is one consistent cut
	// at a batch boundary (no shard mid-batch, no half-restored state).
	// Reads stay lock-free: they go straight to the shard scorers.
	mu     sync.Mutex
	shards []shard
	change model.Broadcast
	// Learn-path partition scratch (single-writer, like Learn itself).
	px [][][]float64
	py [][]int
}

// shard is one replica of a ShardedScorer: a single-model scorer of
// this package, which can install a model the sharded restore has
// already reconstructed and validated.
type shard interface {
	Scorer
	install(c model.Classifier) error
}

// newSharded builds a ShardedScorer over the given replicas (at least
// one). The replicas must be independent models of the same schema.
func newSharded(shards []shard) (*ShardedScorer, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("serve: a sharded scorer needs at least one shard")
	}
	return &ShardedScorer{
		shards: shards,
		px:     make([][][]float64, len(shards)),
		py:     make([][]int, len(shards)),
	}, nil
}

// NumShards returns the replica count.
func (s *ShardedScorer) NumShards() int { return len(s.shards) }

// Shard returns replica i.
func (s *ShardedScorer) Shard(i int) Scorer { return s.shards[i] }

// shardOf hashes the row's feature bits to a replica with FNV-1a, so
// row→shard routing is deterministic across runs and processes.
func (s *ShardedScorer) shardOf(x []float64) int {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, v := range x {
		bits := math.Float64bits(v)
		for i := 0; i < 8; i++ {
			h ^= bits & 0xff
			h *= prime64
			bits >>= 8
		}
	}
	return int(h % uint64(len(s.shards)))
}

// Learn implements model.Classifier: rows are partitioned by hash and
// the non-empty shards learn their parts concurrently — the replicas
// share no state, so one goroutine per shard is safe and training
// scales across cores. Row→shard assignment is deterministic, so
// results do not depend on the scheduling. Like every Scorer, one
// learning loop at a time; Checkpoint and Restore serialise against it.
func (s *ShardedScorer) Learn(b stream.Batch) {
	if b.Len() == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	before, _ := s.StructureVersion()
	for i := range s.shards {
		s.px[i] = s.px[i][:0]
		s.py[i] = s.py[i][:0]
	}
	for i, x := range b.X {
		k := s.shardOf(x)
		s.px[k] = append(s.px[k], x)
		s.py[k] = append(s.py[k], b.Y[i])
	}
	var wg sync.WaitGroup
	for i, sh := range s.shards {
		if len(s.py[i]) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh shard, batch stream.Batch) {
			defer wg.Done()
			sh.Learn(batch)
		}(sh, stream.Batch{X: s.px[i], Y: s.py[i]})
	}
	wg.Wait()
	if after, _ := s.StructureVersion(); after != before {
		s.change.Fire()
	}
}

// Predict implements model.Classifier via the row's shard.
func (s *ShardedScorer) Predict(x []float64) int {
	return s.shards[s.shardOf(x)].Predict(x)
}

// Proba implements Scorer via the row's shard.
func (s *ShardedScorer) Proba(x []float64, out []float64) []float64 {
	return s.shards[s.shardOf(x)].Proba(x, out)
}

// Schema implements Scorer (the replicas share one schema).
func (s *ShardedScorer) Schema() stream.Schema { return s.shards[0].Schema() }

// StructureVersion implements Scorer, summing the replicas — each
// replica's version is monotone, so the sum moves exactly when any
// replica's structure does. It reports false unless every replica
// tracks a version.
func (s *ShardedScorer) StructureVersion() (uint64, bool) {
	var total uint64
	for _, sh := range s.shards {
		v, ok := sh.StructureVersion()
		if !ok {
			return 0, false
		}
		total += v
	}
	return total, true
}

// Changed implements Scorer: closed on the next Learn that moves the
// summed version, or on Restore.
func (s *ShardedScorer) Changed() <-chan struct{} { return s.change.Wait() }

// PredictBatch implements Scorer, routing each row to its shard. Empty
// (or nil) batches return an empty result with no per-shard dispatch.
func (s *ShardedScorer) PredictBatch(X [][]float64, out []int) []int {
	if len(X) == 0 {
		return growInts(out, 0)
	}
	out = growInts(out, len(X))
	for i, x := range X {
		out[i] = s.shards[s.shardOf(x)].Predict(x)
	}
	return out
}

// ProbaBatch implements Scorer, routing each row to its shard. Empty
// (or nil) batches return an empty result with no per-shard dispatch.
func (s *ShardedScorer) ProbaBatch(X [][]float64, out [][]float64) [][]float64 {
	if len(X) == 0 {
		return growRows(out, 0)
	}
	out = growRows(out, len(X))
	for i, x := range X {
		out[i] = s.shards[s.shardOf(x)].Proba(x, out[i])
	}
	return out
}

// Complexity implements model.Classifier, summing the replicas.
func (s *ShardedScorer) Complexity() model.Complexity {
	var total model.Complexity
	for _, sh := range s.shards {
		total = total.Add(sh.Complexity())
	}
	return total
}

// Name implements model.Classifier.
func (s *ShardedScorer) Name() string { return s.shards[0].Name() }

// Unwrap implements Scorer with the first replica's live classifier.
func (s *ShardedScorer) Unwrap() model.Classifier { return s.shards[0].Unwrap() }

// shardedKind names the persist bundle of a sharded checkpoint: one
// member envelope per replica, in shard order, and no meta.
const shardedKind = "sharded"

// Checkpoint implements Scorer: a bundle of per-shard envelopes. It
// serialises against Learn and Restore, so the per-shard captures form
// one consistent cut of the ensemble of replicas at a batch boundary
// even while a trainer goroutine keeps calling Learn.
func (s *ShardedScorer) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	envs := make([][]byte, len(s.shards))
	for i, sh := range s.shards {
		var buf bytes.Buffer
		if err := sh.Checkpoint(&buf); err != nil {
			return fmt.Errorf("serve: checkpoint shard %d: %w", i, err)
		}
		envs[i] = buf.Bytes()
	}
	return persist.WriteBundle(w, shardedKind, nil, envs)
}

// Restore implements Scorer: the shard count must match the scorer's,
// and each replica installs its own envelope in shard order (row→shard
// routing is deterministic, so state lands on the replica that will
// keep serving it). The whole bundle is read, checksummed,
// reconstructed and name-checked before any shard is touched, so a
// truncated or corrupt checkpoint never leaves the scorer serving a mix
// of restored and pre-restore replicas. Restore serialises against
// Learn and Checkpoint.
func (s *ShardedScorer) Restore(r io.Reader) error {
	b, err := persist.ReadBundle(r)
	if err != nil {
		return fmt.Errorf("serve: sharded checkpoint: %w", err)
	}
	if b.Kind != shardedKind {
		return fmt.Errorf("serve: a %q checkpoint does not restore into a sharded scorer", b.Kind)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(b.Members) != len(s.shards) {
		return fmt.Errorf("serve: checkpoint holds %d shards, scorer has %d", len(b.Members), len(s.shards))
	}
	for i, c := range b.Members {
		if c.Name() != s.shards[i].Name() {
			return fmt.Errorf("serve: shard %d checkpoint holds %q, scorer serves %q", i, c.Name(), s.shards[i].Name())
		}
	}
	// Even a partial install may have moved the version, so waiters are
	// woken either way.
	defer s.change.Fire()
	for i, sh := range s.shards {
		if err := sh.install(b.Members[i]); err != nil {
			return fmt.Errorf("serve: restore shard %d (scorer may be partially restored): %w", i, err)
		}
	}
	return nil
}

// --- Registry-driven construction -----------------------------------

// Mode selects the Scorer implementation.
type Mode string

const (
	// ModeSnapshot is the default: lock-free reads via atomic snapshots.
	ModeSnapshot Mode = "snapshot"
	// ModeLocked is the RWMutex scorer.
	ModeLocked Mode = "locked"
	// ModeSharded hashes rows across independent replicas, each served
	// through its own snapshot scorer.
	ModeSharded Mode = "sharded"
)

// ParseMode resolves a CLI-style mode string ("" = snapshot).
func ParseMode(s string) (Mode, error) {
	switch Mode(s) {
	case "", ModeSnapshot:
		return ModeSnapshot, nil
	case ModeLocked:
		return ModeLocked, nil
	case ModeSharded:
		return ModeSharded, nil
	}
	return "", fmt.Errorf("serve: unknown scorer mode %q (want snapshot, locked or sharded)", s)
}

// Config drives New, the registry-driven serving constructor.
type Config struct {
	// Model is the registered model name (see registry.Names).
	Model string
	// Schema describes the stream the scorer will serve.
	Schema stream.Schema
	// Options are the model's functional options (seed, rates, ...).
	Options []registry.Option
	// Mode selects the Scorer implementation (default ModeSnapshot).
	Mode Mode
	// PublishEvery is the snapshot publish cadence in Learn calls
	// (<= 1: every batch). Snapshot and sharded modes only.
	PublishEvery int
	// PublishOnChange republishes only when the model's structure
	// version moved (splits/prunes/replacements/swaps) instead of on the
	// batch cadence. Snapshot and sharded modes; requires a model that
	// implements model.StructureVersioner (every tree learner and both
	// ensembles do; the structureless GLM and Naive Bayes do not).
	PublishOnChange bool
	// Shards is the replica count of ModeSharded (default 2).
	Shards int
}

// New builds a registered model (or, for ModeSharded, Shards replicas
// with per-shard derived seeds) and wraps it in the requested Scorer.
// Models that cannot snapshot — only possible for external learners
// registered without implementing model.Snapshotter — degrade to the
// lock-based scorer.
func New(cfg Config) (Scorer, error) {
	mode := cfg.Mode
	if mode == "" {
		mode = ModeSnapshot
	}
	// A "race:dmt,vfdt,arf" model spec builds the racing meta-scorer
	// instead of a single model. The racer is its own serving
	// implementation (wait-free leader snapshot reads), so the mode
	// knob does not apply.
	if race.IsSpec(cfg.Model) {
		arms, err := race.ParseSpec(cfg.Model)
		if err != nil {
			return nil, err
		}
		// Only the racer-level knobs pass through: each arm runs its
		// paper-default configuration with a seed derived per arm, so
		// a shared WithSeed cannot collapse same-family arms into
		// clones.
		var p registry.Params
		for _, opt := range cfg.Options {
			if opt != nil {
				opt(&p)
			}
		}
		return race.New(race.Config{
			Schema:     cfg.Schema,
			Arms:       arms,
			Seed:       p.Seed,
			Workers:    p.EnsembleWorkers,
			DriftDelta: p.DriftDelta,
		})
	}
	build := func(extra ...registry.Option) (model.Classifier, error) {
		return registry.New(cfg.Model, cfg.Schema, append(append([]registry.Option{}, cfg.Options...), extra...)...)
	}
	wrapOne := func(c model.Classifier) (shard, error) {
		if cfg.PublishOnChange {
			return NewSnapshotOnChange(c)
		}
		return wrap(c, cfg.PublishEvery), nil
	}
	switch mode {
	case ModeLocked:
		c, err := build()
		if err != nil {
			return nil, err
		}
		return NewLocked(c), nil
	case ModeSnapshot:
		c, err := build()
		if err != nil {
			return nil, err
		}
		return wrapOne(c)
	case ModeSharded:
		// Unset defaults to 2; an explicit count is honoured as given
		// (1 is a valid single-replica deployment, not silently doubled).
		n := cfg.Shards
		if n <= 0 {
			n = 2
		}
		shards := make([]shard, n)
		for i := range shards {
			c, err := build(func(p *registry.Params) {
				// Decorrelate the replicas: each shard derives its seed
				// from the configured one.
				p.Seed = p.Seed*1_000_003 + int64(i) + 1
			})
			if err != nil {
				return nil, err
			}
			if shards[i], err = wrapOne(c); err != nil {
				return nil, err
			}
		}
		return newSharded(shards)
	}
	return nil, fmt.Errorf("serve: unknown mode %q", mode)
}

// Wrap wraps an existing classifier in the snapshot scorer when it can
// snapshot, falling back to the lock-based scorer otherwise.
func Wrap(c model.Classifier, publishEvery int) Scorer { return wrap(c, publishEvery) }

func wrap(c model.Classifier, publishEvery int) shard {
	if s, err := NewSnapshot(c, publishEvery); err == nil {
		return s
	}
	return NewLocked(c)
}

// FromCheckpoint reconstructs a fresh serving scorer from checkpoint
// bytes written by any Scorer.Checkpoint — a single model envelope, or
// a bundle of shards or racer arms — without the caller naming a model
// or a topology: both are read off the stream, which is consumed
// exactly. This is how a stateless serving replica bootstraps from a
// trainer's published envelope (see the network serving tier) before it
// starts following version updates via Restore. Each reconstructed
// model is wrapped in the snapshot scorer with the given publish
// cadence (lock-based fallback for models that cannot snapshot).
func FromCheckpoint(r io.Reader, publishEvery int) (Scorer, error) {
	var magic [len(persist.BundleMagic)]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return nil, fmt.Errorf("serve: read checkpoint magic: %w", err)
	}
	r = io.MultiReader(bytes.NewReader(magic[:]), r)
	if string(magic[:]) != persist.BundleMagic {
		c, err := persist.Load(r)
		if err != nil {
			return nil, err
		}
		return wrap(c, publishEvery), nil
	}
	b, err := persist.ReadBundle(r)
	if err != nil {
		return nil, err
	}
	switch b.Kind {
	case race.BundleKind:
		return race.FromBundle(b)
	case shardedKind:
		shards := make([]shard, len(b.Members))
		for i, c := range b.Members {
			shards[i] = wrap(c, publishEvery)
		}
		return newSharded(shards)
	}
	return nil, fmt.Errorf("serve: unknown checkpoint bundle kind %q", b.Kind)
}
