package race

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/drift"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/stream"
)

// BundleKind names a racer checkpoint: a persist bundle whose meta is
// the gob race header and whose members are the arm models in arm order.
const BundleKind = "race"

// formatVersion versions the race header layout.
const formatVersion = 1

// armHeader is one arm's non-model state in the race header; the model
// itself travels as a persist envelope after the header.
type armHeader struct {
	Model        string
	Tracker      stats.PreqState
	Det          drift.ADWINState
	Drifts       uint64
	WarmRestarts uint64
	LastVer      uint64
	HasVer       bool
}

// raceHeader is the gob-encoded head of a racer checkpoint. It carries
// everything but the arm models: config knobs (so FromCheckpoint can
// rebuild without a Config), race counters, the leader, the swap-event
// timeline and the per-arm tracker/detector states.
// The worker count is deliberately absent: parallel training is
// byte-identical to sequential, so the pool width is an execution
// detail of the process, not model state — persisting it would make
// otherwise identical racers checkpoint differently.
type raceHeader struct {
	Version       int
	Schema        stream.Schema
	Seed          int64
	Window        int
	DriftDelta    float64
	MinEvidence   int
	WarmRestart   bool
	Leader        int
	Rows          uint64
	ReRaces       uint64
	LeaderChanges uint64
	DriftChanges  uint64
	DriftArmed    bool
	StructVersion uint64
	Events        []SwapEvent
	Arms          []armHeader
}

// Checkpoint writes the racer's full state as a persist bundle: the
// race header as its meta, one envelope per arm. The capture serialises
// against Learn, so no checkpoint straddles a batch; a restored racer
// continues byte-identically (the arm envelopes carry counted RNG
// state, the header carries the exact window and detector contents).
func (r *Racer) Checkpoint(w io.Writer) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	hdr := raceHeader{
		Version:       formatVersion,
		Schema:        r.cfg.Schema,
		Seed:          r.cfg.Seed,
		Window:        r.cfg.Window,
		DriftDelta:    r.cfg.DriftDelta,
		MinEvidence:   r.cfg.MinEvidence,
		WarmRestart:   r.cfg.WarmRestart,
		Leader:        r.leader,
		Rows:          r.rows,
		ReRaces:       r.reRaces,
		LeaderChanges: r.leaderChanges,
		DriftChanges:  r.driftChanges,
		DriftArmed:    r.driftArmed,
		StructVersion: r.version.Load(),
		Events:        append([]SwapEvent(nil), r.events...),
		Arms:          make([]armHeader, len(r.arms)),
	}
	envelopes := make([][]byte, len(r.arms))
	for i, a := range r.arms {
		hdr.Arms[i] = armHeader{
			Model:        a.name,
			Tracker:      a.tracker.State(),
			Det:          a.det.State(),
			Drifts:       a.drifts,
			WarmRestarts: a.warmRestarts,
			LastVer:      a.lastVer,
			HasVer:       a.hasVer,
		}
		var env bytes.Buffer
		if err := persist.Save(&env, a.clf); err != nil {
			return fmt.Errorf("race: checkpoint arm %d (%s): %w", i, a.name, err)
		}
		envelopes[i] = env.Bytes()
	}
	var meta bytes.Buffer
	if err := gob.NewEncoder(&meta).Encode(hdr); err != nil {
		return fmt.Errorf("race: encode header: %w", err)
	}
	return persist.WriteBundle(w, BundleKind, meta.Bytes(), envelopes)
}

// Restore replaces the racer's state from a Checkpoint written by a
// racer with the same arm lineup. Validation is two-phase: every arm
// envelope is decoded and checked before anything is installed, so a
// truncated or corrupt stream leaves the racer serving its previous
// state untouched.
func (r *Racer) Restore(src io.Reader) error {
	b, err := persist.ReadBundle(src)
	if err != nil {
		return fmt.Errorf("race: %w", err)
	}
	hdr, arms, err := decode(b)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(arms) != len(r.arms) {
		return fmt.Errorf("race: restore with %d arms into a %d-arm racer", len(arms), len(r.arms))
	}
	for i, a := range arms {
		if a.name != r.arms[i].name {
			return fmt.Errorf("race: restore arm %d is %q, racer has %q", i, a.name, r.arms[i].name)
		}
	}
	if hdr.Schema.NumFeatures != r.cfg.Schema.NumFeatures || hdr.Schema.NumClasses != r.cfg.Schema.NumClasses {
		return fmt.Errorf("race: restore schema %q (%d features, %d classes) is incompatible with %q (%d, %d)",
			hdr.Schema.Name, hdr.Schema.NumFeatures, hdr.Schema.NumClasses,
			r.cfg.Schema.Name, r.cfg.Schema.NumFeatures, r.cfg.Schema.NumClasses)
	}
	r.install(hdr, arms)
	return nil
}

// FromCheckpoint reconstructs a racer purely from checkpoint bytes —
// no Config needed; the header carries the knobs and the envelopes
// carry the models.
func FromCheckpoint(src io.Reader) (*Racer, error) {
	b, err := persist.ReadBundle(src)
	if err != nil {
		return nil, fmt.Errorf("race: %w", err)
	}
	return FromBundle(b)
}

// FromBundle is FromCheckpoint for a bundle already read off the wire:
// the serving tier reads a trainer's published checkpoint once and
// dispatches on the bundle's kind.
func FromBundle(b *persist.Bundle) (*Racer, error) {
	hdr, arms, err := decode(b)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(arms))
	for i, a := range arms {
		names[i] = a.name
	}
	r := &Racer{
		cfg: Config{
			Schema:      hdr.Schema,
			Seed:        hdr.Seed,
			Window:      hdr.Window,
			DriftDelta:  hdr.DriftDelta,
			MinEvidence: hdr.MinEvidence,
			WarmRestart: hdr.WarmRestart,
		},
		arms: make([]*arm, len(arms)),
		name: "Race(" + joinNames(names) + ")",
	}
	r.install(hdr, arms)
	return r, nil
}

func joinNames(names []string) string {
	out := ""
	for i, n := range names {
		if i > 0 {
			out += "|"
		}
		out += n
	}
	return out
}

// decode validates a racer bundle, whose members persist has already
// reconstructed, without touching any live racer: each arm's header
// entry must name its model and rebuild its tracker and detector.
func decode(b *persist.Bundle) (*raceHeader, []*arm, error) {
	if b.Kind != BundleKind {
		return nil, nil, fmt.Errorf("race: a %q bundle is not a racer checkpoint", b.Kind)
	}
	var hdr raceHeader
	if err := gob.NewDecoder(bytes.NewReader(b.Meta)).Decode(&hdr); err != nil {
		return nil, nil, fmt.Errorf("race: decode header: %w", err)
	}
	if hdr.Version != formatVersion {
		return nil, nil, fmt.Errorf("race: unsupported format version %d (want %d)", hdr.Version, formatVersion)
	}
	if len(hdr.Arms) < 2 || len(hdr.Arms) != len(b.Members) {
		return nil, nil, fmt.Errorf("race: header lists %d arms for %d models", len(hdr.Arms), len(b.Members))
	}
	if err := hdr.Schema.Validate(); err != nil {
		return nil, nil, fmt.Errorf("race: checkpoint schema: %w", err)
	}
	if hdr.Leader < 0 || hdr.Leader >= len(hdr.Arms) {
		return nil, nil, fmt.Errorf("race: leader %d outside %d arms", hdr.Leader, len(hdr.Arms))
	}
	arms := make([]*arm, len(hdr.Arms))
	for i, ah := range hdr.Arms {
		clf := b.Members[i]
		if clf.Name() != ah.Model {
			return nil, nil, fmt.Errorf("race: arm %d holds %q, header says %q", i, clf.Name(), ah.Model)
		}
		tracker, err := stats.PreqFromState(ah.Tracker)
		if err != nil {
			return nil, nil, fmt.Errorf("race: arm %d tracker: %w", i, err)
		}
		det, err := drift.ADWINFromState(ah.Det)
		if err != nil {
			return nil, nil, fmt.Errorf("race: arm %d detector: %w", i, err)
		}
		if _, ok := clf.(model.Snapshotter); !ok {
			return nil, nil, fmt.Errorf("race: arm %d (%s) cannot snapshot", i, ah.Model)
		}
		arms[i] = &arm{
			name:         ah.Model,
			clf:          clf,
			tracker:      tracker,
			det:          det,
			drifts:       ah.Drifts,
			warmRestarts: ah.WarmRestarts,
			lastVer:      ah.LastVer,
			hasVer:       ah.HasVer,
			proba:        make([]float64, hdr.Schema.NumClasses),
		}
	}
	return &hdr, arms, nil
}

// install swaps the validated state in. Callers hold mu (or own the
// racer exclusively, as FromCheckpoint does). The version counter must
// stay monotone across restores of older state, so it never moves
// backwards — max(current, checkpointed); a fresh FromCheckpoint racer
// therefore resumes at exactly the checkpointed version, keeping the
// save→load→continue path byte-identical (the serving tier already
// invalidates its envelope cache on every swap).
func (r *Racer) install(hdr *raceHeader, arms []*arm) {
	r.arms = arms
	r.leader = hdr.Leader
	r.rows = hdr.Rows
	r.reRaces = hdr.ReRaces
	r.leaderChanges = hdr.LeaderChanges
	r.driftChanges = hdr.DriftChanges
	r.driftArmed = hdr.DriftArmed
	r.events = append([]SwapEvent(nil), hdr.Events...)
	v := hdr.StructVersion
	if cur := r.version.Load(); cur > v {
		v = cur
	}
	r.version.Store(v)
	r.cfg.Schema = hdr.Schema
	r.publish()
	r.change.Fire()
}
