// Package serve is the concurrent model-serving layer behind the public
// repro.Serve / repro.NewScorer API: a Scorer lets prediction traffic
// read one model while a learning loop keeps training it on the live
// stream — the deployment mode the paper targets (an interpretable model
// that never stops learning while it serves).
//
// Every registered learner is served by the SnapshotScorer, which
// publishes an immutable serving snapshot through an atomic pointer
// after Learn (clone-on-publish, with a configurable cadence):
// Predict/Proba/Complexity are wait-free and never blocked by training,
// at the cost of a bounded staleness window (at most PublishEvery
// batches) and a clone per publish. A "race:..." model spec is served by
// the racer of package race instead.
//
// A classifier that cannot snapshot — only possible for an external
// learner — falls back to an unexported scorer that guards it with a
// sync.RWMutex (NewLocked): always applicable, but every read waits
// while Learn holds the write lock.
package serve

import (
	"bytes"
	"fmt"
	"io"
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
	// SnapshotScorer reports the version of the published snapshot (what
	// readers actually serve).
	StructureVersion() (uint64, bool)
	// Changed returns a channel that is closed once StructureVersion
	// moves after the call (and on Restore). Take it before reading the
	// version and no change can slip between the read and the wait —
	// this is what lets the network tier park a long poll until the
	// next publish instead of polling for it.
	Changed() <-chan struct{}
	// Unwrap returns the live underlying classifier. Callers must not
	// use it concurrently with the Scorer.
	Unwrap() model.Classifier
	// Checkpoint writes the scorer's full model state: one persist
	// envelope for a single-model scorer, a persist bundle of arm
	// envelopes for a racer. The capture is consistent — it serialises
	// against Learn, so no checkpoint ever straddles a batch.
	Checkpoint(w io.Writer) error
	// Restore replaces the scorer's model state from a Checkpoint
	// written by an identically configured scorer (same model name).
	// Reads served after Restore returns see the restored state.
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

// lockScorer makes a classifier safe for concurrent serving with a
// sync.RWMutex: reads take the read lock, Learn the write lock. The
// wrapped classifier's read methods must be read-only, which holds for
// every model in this repository. It serves the classifiers that cannot
// snapshot, and is the reference the snapshot scorer's reads are tested
// against.
type lockScorer struct {
	mu     sync.RWMutex
	inner  model.Classifier
	pc     model.ProbabilisticClassifier // nil when inner is not probabilistic
	schema stream.Schema                 // zero when inner exposes no schema
	sv     model.StructureVersioner      // nil when inner tracks no structure version
	change model.Broadcast
}

// NewLocked wraps a classifier in the RWMutex scorer.
func NewLocked(c model.Classifier) Scorer {
	s := &lockScorer{}
	s.set(c)
	return s
}

// set serves c, resolving its optional interfaces once.
func (s *lockScorer) set(c model.Classifier) {
	s.inner = c
	s.pc, _ = c.(model.ProbabilisticClassifier)
	s.sv, _ = c.(model.StructureVersioner)
	if sp, ok := c.(schemaProvider); ok {
		s.schema = sp.Schema()
	}
}

// schemaProvider is the schema accessor every registered learner exposes
// (persist.Save requires it to write loadable envelopes).
type schemaProvider interface {
	Schema() stream.Schema
}

// Unwrap implements Scorer.
func (s *lockScorer) Unwrap() model.Classifier { return s.inner }

// Learn implements model.Classifier under the write lock, firing
// Changed when the batch moved the structure version.
func (s *lockScorer) Learn(b stream.Batch) {
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
func (s *lockScorer) Predict(x []float64) int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Predict(x)
}

// Proba returns class probabilities under a read lock, with the OneHot
// fallback for non-probabilistic models.
func (s *lockScorer) Proba(x []float64, out []float64) []float64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.pc != nil {
		return s.pc.Proba(x, out)
	}
	return OneHot(s.inner.Predict(x), out)
}

// Schema implements Scorer (the wrapped model's schema, zero when the
// classifier exposes none).
func (s *lockScorer) Schema() stream.Schema {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.schema
}

// StructureVersion implements Scorer.
func (s *lockScorer) StructureVersion() (uint64, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.sv == nil {
		return 0, false
	}
	return s.sv.StructureVersion(), true
}

// Changed implements Scorer.
func (s *lockScorer) Changed() <-chan struct{} { return s.change.Wait() }

// PredictBatch implements Scorer under one read lock for the whole
// batch, so the rows are served from one consistent model state.
// Empty (or nil) batches return an empty result without taking the lock.
func (s *lockScorer) PredictBatch(X [][]float64, out []int) []int {
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
func (s *lockScorer) ProbaBatch(X [][]float64, out [][]float64) [][]float64 {
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
func (s *lockScorer) Complexity() model.Complexity {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Complexity()
}

// Name implements model.Classifier.
func (s *lockScorer) Name() string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.inner.Name()
}

// Checkpoint implements Scorer: the wrapped model as one envelope,
// captured under the write lock so it never straddles a Learn.
func (s *lockScorer) Checkpoint(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return persist.Save(w, s.inner)
}

// Restore implements Scorer, swapping in the model reconstructed from
// the envelope. The checkpointed model must match the served one.
func (s *lockScorer) Restore(r io.Reader) error {
	c, err := persist.Load(r)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if c.Name() != s.inner.Name() {
		return fmt.Errorf("serve: restore %q into a scorer serving %q", c.Name(), s.inner.Name())
	}
	s.set(c)
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

// --- Registry-driven construction -----------------------------------

// Config drives New, the registry-driven serving constructor.
type Config struct {
	// Model is the registered model name (see registry.Names), or a
	// "race:dmt,vfdt,arf" spec.
	Model string
	// Schema describes the stream the scorer will serve.
	Schema stream.Schema
	// Options are the model's functional options (seed, rates, ...).
	Options []registry.Option
	// PublishEvery is the snapshot publish cadence in Learn calls
	// (<= 1: every batch).
	PublishEvery int
	// PublishOnChange republishes only when the model's structure
	// version moved (splits/prunes/replacements/swaps) instead of on the
	// batch cadence. It requires a model that implements
	// model.StructureVersioner (every tree learner and both ensembles
	// do; the structureless GLM and Naive Bayes do not).
	PublishOnChange bool
}

// New builds a registered model and wraps it in the snapshot scorer, or
// builds the racer for a race spec. A model that cannot snapshot — only
// possible for an external learner registered without implementing
// model.Snapshotter — degrades to the RWMutex scorer.
func New(cfg Config) (Scorer, error) {
	// A "race:dmt,vfdt,arf" model spec builds the racing meta-scorer
	// instead of a single model. The racer is its own serving
	// implementation (wait-free leader snapshot reads), so the publish
	// knobs do not apply.
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
	c, err := registry.New(cfg.Model, cfg.Schema, cfg.Options...)
	if err != nil {
		return nil, err
	}
	if cfg.PublishOnChange {
		return NewSnapshotOnChange(c)
	}
	return Wrap(c, cfg.PublishEvery), nil
}

// Wrap wraps an existing classifier in the snapshot scorer when it can
// snapshot, falling back to the RWMutex scorer otherwise.
func Wrap(c model.Classifier, publishEvery int) Scorer {
	if s, err := NewSnapshot(c, publishEvery); err == nil {
		return s
	}
	return NewLocked(c)
}

// FromCheckpoint reconstructs a fresh serving scorer from checkpoint
// bytes written by any Scorer.Checkpoint — a single model envelope, or
// a racer's bundle of arms — without the caller naming a model: it is
// read off the stream, which is consumed exactly. This is how a
// stateless serving replica bootstraps from a trainer's published
// envelope (see the network serving tier) before it starts following
// version updates via Restore. A single model is wrapped in the snapshot
// scorer with the given publish cadence (RWMutex fallback for models
// that cannot snapshot).
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
		return Wrap(c, publishEvery), nil
	}
	b, err := persist.ReadBundle(r)
	if err != nil {
		return nil, err
	}
	if b.Kind != race.BundleKind {
		return nil, fmt.Errorf("serve: unknown checkpoint bundle kind %q", b.Kind)
	}
	return race.FromBundle(b)
}
