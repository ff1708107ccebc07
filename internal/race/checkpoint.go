package race

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/drift"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Magic prefixes a racer checkpoint: a gob race header framed by a
// big-endian length, followed by one persist envelope per arm in arm
// order. The envelopes reuse the registry-wide checkpoint format, so a
// racer checkpoint is a "RACE"-framed envelope sequence — exact-byte
// framed and therefore stackable on a single stream like every other
// checkpoint in the repository.
const Magic = "RACE"

// formatVersion versions the race header layout.
const formatVersion = 1

// maxHeaderBytes bounds the declared header length so corrupt bytes
// cannot demand an absurd allocation.
const maxHeaderBytes = 1 << 24

// maxCheckpointArms bounds the arm count a checkpoint may declare.
const maxCheckpointArms = 1 << 10

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

// Checkpoint writes the racer's full state: the "RACE" header followed
// by one persist envelope per arm. The capture serialises against
// Learn, so no checkpoint straddles a batch; a restored racer continues
// byte-identically (the arm envelopes carry counted RNG state, the
// header carries the exact window and detector contents).
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
	envelopes := make([]*bytes.Buffer, len(r.arms))
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
		envelopes[i] = &bytes.Buffer{}
		if err := persist.Save(envelopes[i], a.clf); err != nil {
			return fmt.Errorf("race: checkpoint arm %d (%s): %w", i, a.name, err)
		}
	}
	var head bytes.Buffer
	if err := gob.NewEncoder(&head).Encode(hdr); err != nil {
		return fmt.Errorf("race: encode header: %w", err)
	}
	if _, err := io.WriteString(w, Magic); err != nil {
		return fmt.Errorf("race: write magic: %w", err)
	}
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(head.Len()))
	if _, err := w.Write(hlen[:]); err != nil {
		return fmt.Errorf("race: write header length: %w", err)
	}
	if _, err := w.Write(head.Bytes()); err != nil {
		return fmt.Errorf("race: write header: %w", err)
	}
	for i, env := range envelopes {
		if _, err := w.Write(env.Bytes()); err != nil {
			return fmt.Errorf("race: write arm %d envelope: %w", i, err)
		}
	}
	return nil
}

// Restore replaces the racer's state from a Checkpoint written by a
// racer with the same arm lineup. Validation is two-phase: every arm
// envelope is decoded and checked before anything is installed, so a
// truncated or corrupt stream leaves the racer serving its previous
// state untouched.
func (r *Racer) Restore(src io.Reader) error {
	hdr, arms, err := read(src)
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
// carry the models. This is how the serving tier bootstraps a race
// from a trainer's published envelope.
func FromCheckpoint(src io.Reader) (*Racer, error) {
	hdr, arms, err := read(src)
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

// read decodes and validates a full racer checkpoint without touching
// any live racer: header, then one arm per header entry, each arm's
// tracker and detector reconstructed and its envelope loaded.
func read(src io.Reader) (*raceHeader, []*arm, error) {
	br := bufio.NewReader(src)
	magic := make([]byte, len(Magic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, nil, fmt.Errorf("race: read magic: %w", err)
	}
	if string(magic) != Magic {
		return nil, nil, fmt.Errorf("race: bad magic %q (not a racer checkpoint)", magic)
	}
	var hlen [4]byte
	if _, err := io.ReadFull(br, hlen[:]); err != nil {
		return nil, nil, fmt.Errorf("race: read header length: %w", err)
	}
	n := binary.BigEndian.Uint32(hlen[:])
	if n == 0 || n > maxHeaderBytes {
		return nil, nil, fmt.Errorf("race: implausible header length %d", n)
	}
	head := make([]byte, n)
	if _, err := io.ReadFull(br, head); err != nil {
		return nil, nil, fmt.Errorf("race: read header: %w", err)
	}
	var hdr raceHeader
	if err := gob.NewDecoder(bytes.NewReader(head)).Decode(&hdr); err != nil {
		return nil, nil, fmt.Errorf("race: decode header: %w", err)
	}
	if hdr.Version != formatVersion {
		return nil, nil, fmt.Errorf("race: unsupported format version %d (want %d)", hdr.Version, formatVersion)
	}
	if len(hdr.Arms) < 2 || len(hdr.Arms) > maxCheckpointArms {
		return nil, nil, fmt.Errorf("race: implausible arm count %d", len(hdr.Arms))
	}
	if err := hdr.Schema.Validate(); err != nil {
		return nil, nil, fmt.Errorf("race: checkpoint schema: %w", err)
	}
	if hdr.Leader < 0 || hdr.Leader >= len(hdr.Arms) {
		return nil, nil, fmt.Errorf("race: leader %d outside %d arms", hdr.Leader, len(hdr.Arms))
	}
	arms := make([]*arm, len(hdr.Arms))
	for i, ah := range hdr.Arms {
		clf, err := persist.Load(br)
		if err != nil {
			return nil, nil, fmt.Errorf("race: load arm %d (%s): %w", i, ah.Model, err)
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
