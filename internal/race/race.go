// Package race implements online model racing: a meta-scorer that
// trains several registered learners ("arms") on the same stream,
// tracks each arm's prequential error in an ADWIN-managed sliding
// window, and routes all serving traffic to the current leader through
// a wait-free atomic pointer. When ADWIN fires on the leader's error
// stream the race window resets (and, optionally, trailing arms of the
// leader's model family are warm-restarted from the leader's
// envelope), so the fleet re-competes under the new concept instead of
// coasting on stale window evidence.
//
// The Racer implements the serving Scorer contract structurally —
// Learn/Predict/Proba/batch variants/Complexity/Schema/
// StructureVersion/Changed/Unwrap/Checkpoint/Restore — so it slots
// unchanged into the prequential evaluator, the HTTP serving tier and
// the checkpoint tooling. Training the arms runs on the same member-major
// bounded worker pool the ensembles use: indices are claimed from an
// atomic counter and every arm owns its model, tracker, detector and
// scratch buffers, which makes parallel runs byte-identical to
// sequential ones.
package race

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/drift"
	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/pool"
	"repro/internal/registry"
	"repro/internal/stats"
	"repro/internal/stream"
)

// Defaults of the knobs Config leaves at zero.
const (
	// DefaultWindow is the per-arm prequential window capacity.
	DefaultWindow = 500
	// DefaultDriftDelta is the per-arm ADWIN confidence on the 0/1
	// error stream (the Leveraging-Bagging default).
	DefaultDriftDelta = 0.002
	// DefaultMinEvidence is the number of windowed observations an arm
	// needs before it can take the lead — a freshly reset window holds
	// too little evidence to justify a traffic swing.
	DefaultMinEvidence = 30
	// maxEvents bounds the retained leader-change timeline.
	maxEvents = 64
)

// Arm specifies one competitor: a registered model name (aliases like
// "dmt", "vfdt" or "arf" resolve via ResolveModel) plus its functional
// options. Each arm gets a seed derived from the racer's, applied
// before the arm's own options so an explicit WithSeed wins.
type Arm struct {
	Model   string
	Options []registry.Option
}

// Config drives New.
type Config struct {
	// Schema describes the stream every arm trains on.
	Schema stream.Schema
	// Arms are the competitors; at least two.
	Arms []Arm
	// Seed derives every arm's default seed.
	Seed int64
	// Workers bounds the arm-training fan-out on the shared worker pool
	// (0 = one part per pool goroutine, 1 = sequential; results are
	// identical either way).
	Workers int
	// Window is the per-arm prequential window capacity (default
	// DefaultWindow).
	Window int
	// DriftDelta is the per-arm ADWIN confidence (default
	// DefaultDriftDelta).
	DriftDelta float64
	// MinEvidence is the windowed-observation floor below which an arm
	// cannot take the lead (default DefaultMinEvidence).
	MinEvidence int
	// WarmRestart re-seeds, at each drift-triggered re-race, every
	// trailing arm of the leader's registered model family from the
	// leader's checkpoint envelope — knowledge transfer inside a
	// family without collapsing cross-family diversity.
	WarmRestart bool
}

// SwapEvent is one leader change, retained (bounded) for timelines.
type SwapEvent struct {
	// Row is the lifetime observation count at the swap.
	Row uint64 `json:"row"`
	// From/To are arm indices; FromModel/ToModel their model names.
	From      int    `json:"from"`
	To        int    `json:"to"`
	FromModel string `json:"from_model"`
	ToModel   string `json:"to_model"`
	// Drift marks a swap that followed a drift-triggered re-race (the
	// first leader change after the leader's ADWIN fired).
	Drift bool `json:"drift"`
}

// ArmStatus is one arm's row of the race scoreboard.
type ArmStatus struct {
	Index        int     `json:"index"`
	Model        string  `json:"model"`
	ErrorRate    float64 `json:"error_rate"`
	Accuracy     float64 `json:"accuracy"`
	LogLoss      float64 `json:"log_loss"`
	WindowLen    int     `json:"window_len"`
	Rows         uint64  `json:"rows"`
	Drifts       uint64  `json:"drifts"`
	WarmRestarts uint64  `json:"warm_restarts"`
	Leader       bool    `json:"leader"`
}

// Status is the race scoreboard served by /statusz.
type Status struct {
	Name          string      `json:"name"`
	Leader        string      `json:"leader"`
	LeaderIndex   int         `json:"leader_index"`
	Rows          uint64      `json:"rows"`
	ReRaces       uint64      `json:"re_races"`
	LeaderChanges uint64      `json:"leader_changes"`
	DriftChanges  uint64      `json:"drift_changes"`
	Arms          []ArmStatus `json:"arms"`
	Events        []SwapEvent `json:"events,omitempty"`
}

// arm is the private per-competitor state. Every field is owned by
// exactly one pool worker during Learn, which is what makes parallel
// training byte-identical to sequential.
type arm struct {
	name         string // canonical registered model name
	clf          model.Classifier
	tracker      *stats.Preq
	det          *drift.ADWIN
	drifts       uint64
	warmRestarts uint64
	lastVer      uint64 // last observed StructureVersion, for the racer's own counter
	hasVer       bool
	drifted      bool      // ADWIN fired during the current batch
	proba        []float64 // scratch for per-row log-loss scoring
}

// view is the atomically published read state: the leader's immutable
// snapshot plus the identity it was captured under.
type view struct {
	snap   model.Snapshot
	proba  model.ProbaSnapshot // nil when the leader has no probabilistic snapshot
	leader int
}

// Racer races N arms and serves the leader. The zero value is not
// usable; construct with New or FromCheckpoint.
type Racer struct {
	mu  sync.Mutex // serialises Learn / Checkpoint / Restore / Status
	cfg Config

	arms          []*arm
	leader        int
	rows          uint64
	reRaces       uint64
	leaderChanges uint64
	driftChanges  uint64
	driftArmed    bool // a re-race happened; the next swap counts as drift-triggered
	events        []SwapEvent

	version atomic.Uint64
	change  model.Broadcast // fired when version moves
	view    atomic.Pointer[view]
	name    string
}

// modelAliases maps CLI-friendly shorthands onto registered names.
// Exact registered names (and case-insensitive matches of them) always
// resolve first, so the table only needs the true nicknames.
var modelAliases = map[string]string{
	"dmt":         "DMT",
	"fimt":        "FIMT-DD",
	"fimtdd":      "FIMT-DD",
	"vfdt":        "VFDT",
	"ht":          "VFDT",
	"mc":          "VFDT (MC)",
	"vfdt-mc":     "VFDT (MC)",
	"vfdt-nb":     "VFDT (NB)",
	"nba":         "VFDT (NBA)",
	"vfdt-nba":    "VFDT (NBA)",
	"hat":         "HT-Ada",
	"htada":       "HT-Ada",
	"efdt":        "EFDT",
	"arf":         "Forest Ens.",
	"forest":      "Forest Ens.",
	"levbag":      "Bagging Ens.",
	"bag":         "Bagging Ens.",
	"bagging":     "Bagging Ens.",
	"glm":         "GLM",
	"logistic":    "GLM",
	"nb":          "Naive Bayes",
	"naive-bayes": "Naive Bayes",
	"naivebayes":  "Naive Bayes",
}

// SpecPrefix marks a serving model spec as a race: "race:dmt,vfdt,arf"
// races the named arms instead of building a single model.
const SpecPrefix = "race:"

// IsSpec reports whether a model spec names a race.
func IsSpec(spec string) bool { return strings.HasPrefix(spec, SpecPrefix) }

// ParseSpec splits a "race:NAME,NAME,..." spec into resolved arm specs.
// Each name goes through ResolveModel, so aliases work on the CLI.
func ParseSpec(spec string) ([]Arm, error) {
	if !IsSpec(spec) {
		return nil, fmt.Errorf("race: %q is not a race spec (want %q prefix)", spec, SpecPrefix)
	}
	var arms []Arm
	for _, part := range strings.Split(strings.TrimPrefix(spec, SpecPrefix), ",") {
		name := strings.TrimSpace(part)
		if name == "" {
			continue
		}
		canonical, ok := ResolveModel(name)
		if !ok {
			return nil, fmt.Errorf("race: unknown arm %q in spec %q (registered: %s)",
				name, spec, strings.Join(registry.Names(), ", "))
		}
		arms = append(arms, Arm{Model: canonical})
	}
	if len(arms) < 2 {
		return nil, fmt.Errorf("race: spec %q names %d arms, need at least 2", spec, len(arms))
	}
	return arms, nil
}

// ResolveModel maps an arm spec onto a registered model name: exact
// names first, then case-insensitive matches, then the alias table
// ("dmt", "vfdt", "arf", ...). ok is false for unknown names.
func ResolveModel(name string) (string, bool) {
	if registry.Registered(name) {
		return name, true
	}
	lower := strings.ToLower(strings.TrimSpace(name))
	for _, reg := range registry.Names() {
		if strings.ToLower(reg) == lower {
			return reg, true
		}
	}
	if canonical, ok := modelAliases[lower]; ok && registry.Registered(canonical) {
		return canonical, true
	}
	return "", false
}

// New builds a racer: every arm is constructed from the registry with a
// derived seed (overridable by the arm's own WithSeed), validated to be
// checkpointable (the warm-restart and persistence paths need the
// envelope round trip), and arm 0 starts as leader.
func New(cfg Config) (*Racer, error) {
	if err := cfg.Schema.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Arms) < 2 {
		return nil, fmt.Errorf("race: need at least 2 arms, got %d", len(cfg.Arms))
	}
	if cfg.Window <= 0 {
		cfg.Window = DefaultWindow
	}
	if cfg.DriftDelta <= 0 || cfg.DriftDelta >= 1 {
		cfg.DriftDelta = DefaultDriftDelta
	}
	if cfg.MinEvidence <= 0 {
		cfg.MinEvidence = DefaultMinEvidence
	}
	if cfg.MinEvidence > cfg.Window {
		cfg.MinEvidence = cfg.Window
	}
	r := &Racer{cfg: cfg, arms: make([]*arm, len(cfg.Arms))}
	names := make([]string, len(cfg.Arms))
	for i, spec := range cfg.Arms {
		canonical, ok := ResolveModel(spec.Model)
		if !ok {
			return nil, fmt.Errorf("race: arm %d: unknown model %q (registered: %s)",
				i, spec.Model, strings.Join(registry.Names(), ", "))
		}
		idx := i
		opts := append([]registry.Option{func(p *registry.Params) {
			// Decorrelate the arms the same way the sharded scorer
			// decorrelates replicas; the arm's own WithSeed overrides.
			p.Seed = cfg.Seed*1_000_003 + int64(idx) + 1
		}}, spec.Options...)
		clf, err := registry.New(canonical, cfg.Schema, opts...)
		if err != nil {
			return nil, fmt.Errorf("race: arm %d (%s): %w", i, canonical, err)
		}
		// The arm's identity is the model's own name (what its
		// checkpoint envelope records — e.g. the generic "VFDT" builds
		// a "VFDT (MC)"), so the checkpoint lineup check and the
		// warm-restart family match line up with the envelope format.
		armName := clf.Name()
		if _, ok := clf.(model.Checkpointer); !ok || !registry.HasLoader(armName) {
			return nil, fmt.Errorf("race: arm %d (%s) cannot checkpoint — racing requires the envelope round trip", i, armName)
		}
		a := &arm{
			name:    armName,
			clf:     clf,
			tracker: stats.NewPreq(cfg.Window),
			det:     drift.NewADWIN(cfg.DriftDelta),
			proba:   make([]float64, cfg.Schema.NumClasses),
		}
		a.lastVer, a.hasVer = structureVersion(clf)
		r.arms[i] = a
		names[i] = armName
	}
	r.name = "Race(" + strings.Join(names, "|") + ")"
	r.publish()
	return r, nil
}

func structureVersion(c model.Classifier) (uint64, bool) {
	if sv, ok := c.(model.StructureVersioner); ok {
		return sv.StructureVersion(), true
	}
	return 0, false
}

// clipProb floors a probability before the log, matching the
// evaluator's log-loss clamp.
func clipProb(p float64) float64 {
	const eps = 1e-15
	if p < eps {
		return eps
	}
	return p
}

// Learn races the batch: every arm scores it prequentially (predict
// before train, error into the arm's window and ADWIN) and then trains
// on it, in parallel across arms with byte-identical-to-sequential
// results. Afterwards, single-threaded: a leader-drift re-race if the
// leader's ADWIN fired, leader re-election on windowed error, version
// accounting and the atomic publish of the (possibly new) leader's
// snapshot.
func (r *Racer) Learn(b stream.Batch) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := b.Len()
	if n == 0 {
		return
	}
	pool.Each(r.cfg.Workers, len(r.arms), func(i int) {
		a := r.arms[i]
		a.drifted = false
		pc, probabilistic := a.clf.(model.ProbabilisticClassifier)
		for k := 0; k < n; k++ {
			x := b.X[k]
			// Predict with the model's own tie-breaking; probabilities
			// are scored separately, only for the loss column.
			pred := a.clf.Predict(x)
			loss := math.NaN()
			if probabilistic {
				p := pc.Proba(x, a.proba)
				if y := b.Y[k]; y >= 0 && y < len(p) {
					loss = -math.Log(clipProb(p[y]))
				}
			}
			correct := pred == b.Y[k]
			a.tracker.Observe(correct, loss)
			errv := 1.0
			if correct {
				errv = 0
			}
			if a.det.Add(errv) {
				a.drifted = true
				a.drifts++
			}
		}
		a.clf.Learn(b)
	})
	r.rows += uint64(n)

	bump := uint64(0)
	if r.arms[r.leader].drifted {
		r.reRace()
		bump++
	}
	if r.electLeader() {
		bump++
	}
	// Fold the arms' own structural movement into the racer's monotone
	// counter, so the serving tier's publish-on-change and envelope
	// caching see arm splits/prunes/swaps as racer versions.
	for _, a := range r.arms {
		if v, ok := structureVersion(a.clf); ok {
			if a.hasVer && v > a.lastVer {
				bump += v - a.lastVer
			} else if !a.hasVer {
				bump++
			}
			a.lastVer, a.hasVer = v, true
		}
	}
	if bump > 0 {
		r.version.Add(bump)
		r.change.Fire()
	}
	r.publish()
}

// reRace resets every arm's race window and detector after the leader's
// ADWIN fired. With WarmRestart on, trailing arms of the leader's model
// family are re-seeded from the leader's envelope: under the new
// concept the family restarts from the leader's knowledge instead of
// dragging a stale model through the recovery.
func (r *Racer) reRace() {
	r.reRaces++
	r.driftArmed = true
	lead := r.arms[r.leader]
	var envelope []byte
	if r.cfg.WarmRestart {
		var buf bytes.Buffer
		if err := persist.Save(&buf, lead.clf); err == nil {
			envelope = buf.Bytes()
		}
	}
	for i, a := range r.arms {
		a.tracker.Reset()
		a.det = drift.NewADWIN(r.cfg.DriftDelta)
		a.drifted = false
		if i == r.leader || envelope == nil || a.name != lead.name {
			continue
		}
		if clf, err := persist.Load(bytes.NewReader(envelope)); err == nil {
			a.clf = clf
			a.lastVer, a.hasVer = structureVersion(clf)
			a.warmRestarts++
		}
	}
}

// electLeader routes traffic to the lowest windowed error rate among
// arms with enough evidence; ties keep the incumbent (then the lowest
// index), so near-equal arms do not flap the leader pointer.
func (r *Racer) electLeader() bool {
	best := r.leader
	bestErr := math.Inf(1)
	if r.arms[best].tracker.Len() > 0 {
		bestErr = r.arms[best].tracker.ErrorRate()
	}
	for i, a := range r.arms {
		if i == r.leader || a.tracker.Len() < r.cfg.MinEvidence {
			continue
		}
		if e := a.tracker.ErrorRate(); e < bestErr {
			best, bestErr = i, e
		}
	}
	if best == r.leader {
		return false
	}
	ev := SwapEvent{
		Row: r.rows, From: r.leader, To: best,
		FromModel: r.arms[r.leader].name, ToModel: r.arms[best].name,
		Drift: r.driftArmed,
	}
	if r.driftArmed {
		r.driftChanges++
		r.driftArmed = false
	}
	r.leaderChanges++
	r.leader = best
	if len(r.events) == maxEvents {
		copy(r.events, r.events[1:])
		r.events = r.events[:maxEvents-1]
	}
	r.events = append(r.events, ev)
	return true
}

// publish captures the leader's immutable snapshot and swings the
// atomic read pointer. Copy-on-write snapshots make this O(changed
// path), so capturing every batch is cheap.
func (r *Racer) publish() {
	lead := r.arms[r.leader]
	snap := lead.clf.(model.Snapshotter).Snapshot()
	v := &view{snap: snap, leader: r.leader}
	if ps, ok := snap.(model.ProbaSnapshot); ok {
		if _, probabilistic := lead.clf.(model.ProbabilisticClassifier); probabilistic {
			v.proba = ps
		}
	}
	r.view.Store(v)
}

// --- Wait-free reads --------------------------------------------------

// Predict serves one row from the published leader snapshot.
func (r *Racer) Predict(x []float64) int { return r.view.Load().snap.Predict(x) }

// Proba serves class probabilities from the published leader snapshot,
// degrading to a one-hot vector of Predict for non-probabilistic
// leaders (the Scorer contract).
func (r *Racer) Proba(x []float64, out []float64) []float64 {
	v := r.view.Load()
	if v.proba != nil {
		return v.proba.Proba(x, out)
	}
	return oneHot(v.snap.Predict(x), r.cfg.Schema.NumClasses, out)
}

func oneHot(y, classes int, out []float64) []float64 {
	n := classes
	if y >= n {
		n = y + 1
	}
	if cap(out) < n {
		out = make([]float64, n)
	}
	out = out[:n]
	for i := range out {
		out[i] = 0
	}
	out[y] = 1
	return out
}

// PredictBatch serves the whole batch from one published view.
func (r *Racer) PredictBatch(X [][]float64, out []int) []int {
	v := r.view.Load()
	if cap(out) < len(X) {
		out = make([]int, len(X))
	}
	out = out[:len(X)]
	for i, x := range X {
		out[i] = v.snap.Predict(x)
	}
	return out
}

// ProbaBatch serves per-row probability vectors from one published view.
func (r *Racer) ProbaBatch(X [][]float64, out [][]float64) [][]float64 {
	v := r.view.Load()
	if cap(out) < len(X) {
		next := make([][]float64, len(X))
		copy(next, out[:cap(out)])
		out = next
	}
	out = out[:len(X)]
	for i, x := range X {
		if v.proba != nil {
			out[i] = v.proba.Proba(x, out[i])
		} else {
			out[i] = oneHot(v.snap.Predict(x), r.cfg.Schema.NumClasses, out[i])
		}
	}
	return out
}

// Complexity reports the published leader snapshot's size.
func (r *Racer) Complexity() model.Complexity { return r.view.Load().snap.Complexity() }

// Name identifies the race by its arm lineup, e.g. "Race(DMT|VFDT|GLM)".
func (r *Racer) Name() string { return r.name }

// Schema returns the stream schema every arm was built for.
func (r *Racer) Schema() stream.Schema { return r.cfg.Schema }

// StructureVersion reports the racer's own monotone counter: it moves
// with arm structural changes, leader swaps, re-races and restores, so
// envelope caching and publish-on-change work across warm restarts.
func (r *Racer) StructureVersion() (uint64, bool) { return r.version.Load(), true }

// Changed returns a channel closed on the next Learn that moves the
// racer's version, or on Restore.
func (r *Racer) Changed() <-chan struct{} { return r.change.Wait() }

// Unwrap returns the current leader's live classifier (the probabilistic
// gate of the evaluator inspects it). Not safe to use concurrently with
// Learn, per the Scorer contract.
func (r *Racer) Unwrap() model.Classifier {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.arms[r.leader].clf
}

// Leader returns the current leader's index and model name.
func (r *Racer) Leader() (int, string) {
	v := r.view.Load()
	r.mu.Lock()
	name := r.arms[v.leader].name
	r.mu.Unlock()
	return v.leader, name
}

// RaceStatus exports the scoreboard: per-arm windowed error, log-loss
// and drift counters, the leader identity and the bounded swap-event
// timeline. The serving tier embeds it in /statusz.
func (r *Racer) RaceStatus() Status {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := Status{
		Name:          r.name,
		Leader:        r.arms[r.leader].name,
		LeaderIndex:   r.leader,
		Rows:          r.rows,
		ReRaces:       r.reRaces,
		LeaderChanges: r.leaderChanges,
		DriftChanges:  r.driftChanges,
		Arms:          make([]ArmStatus, len(r.arms)),
		Events:        append([]SwapEvent(nil), r.events...),
	}
	for i, a := range r.arms {
		st.Arms[i] = ArmStatus{
			Index:        i,
			Model:        a.name,
			ErrorRate:    a.tracker.ErrorRate(),
			Accuracy:     a.tracker.Accuracy(),
			LogLoss:      a.tracker.MeanLoss(),
			WindowLen:    a.tracker.Len(),
			Rows:         a.tracker.Rows(),
			Drifts:       a.drifts,
			WarmRestarts: a.warmRestarts,
			Leader:       i == r.leader,
		}
	}
	return st
}
