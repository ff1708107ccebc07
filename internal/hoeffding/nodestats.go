// Package hoeffding implements the Very Fast Decision Tree (VFDT) of
// Domingos & Hulten [11] with binary numeric splits, information-gain (or
// Gini) merits, the Hoeffding bound split test, and three leaf modes:
// majority class ("VFDT (MC)"), Naive Bayes, and adaptive Naive Bayes
// ("VFDT (NBA)" [31]). The NodeStats type is shared with the adaptive
// Hoeffding tree (internal/hatada) and EFDT (internal/efdt) substrates.
package hoeffding

import (
	"math"
	"math/rand"

	"repro/internal/attrobs"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/nbayes"
	"repro/internal/pool"
	"repro/internal/split"
	"repro/internal/stream"
)

// LeafMode selects the leaf prediction strategy.
type LeafMode int

const (
	// MajorityClass predicts the most frequent class at the leaf.
	MajorityClass LeafMode = iota
	// NaiveBayes predicts with a Gaussian Naive Bayes model at the leaf.
	NaiveBayes
	// NaiveBayesAdaptive predicts with whichever of majority class and
	// Naive Bayes has been more accurate at this leaf so far [31].
	NaiveBayesAdaptive
)

// String returns the report label of the mode.
func (m LeafMode) String() string {
	switch m {
	case MajorityClass:
		return "MC"
	case NaiveBayes:
		return "NB"
	case NaiveBayesAdaptive:
		return "NBA"
	}
	return "?"
}

// Config collects the hyperparameters of the Hoeffding tree family. The
// defaults follow the scikit-multiflow configuration the paper evaluates
// (Section VI-C): delta 1e-7, tie threshold 0.05, grace period 200,
// information gain, binary splits only.
type Config struct {
	// GracePeriod is the weight a leaf must accumulate between split
	// attempts (default 200).
	GracePeriod float64
	// Delta is the Hoeffding bound confidence (default 1e-7).
	Delta float64
	// Tau is the tie-break threshold (default 0.05).
	Tau float64
	// Criterion scores candidate splits (default split.InfoGain).
	Criterion split.Criterion
	// LeafMode selects the leaf predictor (default MajorityClass).
	LeafMode LeafMode
	// Bins is the number of candidate thresholds per numeric observer
	// (default 10).
	Bins int
	// MaxDepth bounds tree growth; 0 means unbounded.
	MaxDepth int
	// SubspaceSize, when positive, restricts each leaf to a random subset
	// of features of this size (the Adaptive Random Forest uses
	// round(sqrt(m))+1). Zero uses all features.
	SubspaceSize int
	// Seed drives the subspace sampling.
	Seed int64
}

// WithDefaults fills unset fields with the paper's defaults. Wrapping
// trees (HT-Ada, EFDT, the ensembles) must call it before sharing the
// config with NodeStats.
func (c Config) WithDefaults() Config {
	if c.GracePeriod <= 0 {
		c.GracePeriod = 200
	}
	if c.Delta <= 0 {
		c.Delta = 1e-7
	}
	if c.Tau <= 0 {
		c.Tau = 0.05
	}
	if c.Criterion == nil {
		c.Criterion = split.InfoGain{}
	}
	if c.Bins <= 0 {
		c.Bins = 10
	}
	return c
}

// NodeStats holds the sufficient statistics of one growing node: the class
// distribution, per-feature observers, the optional Naive Bayes leaf model
// and the adaptive-mode accuracy counters. It is reused by the HAT and
// EFDT trees, whose inner nodes also keep observing.
type NodeStats struct {
	cfg    *Config
	schema stream.Schema
	sc     *Scratch // per-tree shared workspace (never nil)
	counts []float64
	// observers[j] observes numeric feature j; cats[j] observes
	// categorical feature j. Exactly one of the two is non-nil per
	// feature, per the schema's kinds; cats is nil for the all-numeric
	// schemas that predate feature kinds.
	observers []*attrobs.Gaussian
	cats      []*attrobs.Categorical
	features  []int // observed feature subset; nil means all
	nb        *nbayes.Model
	mcOK      float64
	nbOK      float64
	seen      float64
	lastEval  float64
}

// NewNodeStats returns empty statistics for one node. rng is only used
// when cfg.SubspaceSize is positive. sc is the owning tree's shared
// workspace; nil allocates a private one (convenient for stand-alone
// nodes and tests, wasteful for whole trees).
func NewNodeStats(cfg *Config, schema stream.Schema, rng *rand.Rand, sc *Scratch) *NodeStats {
	if sc == nil {
		sc = NewScratch(schema)
	}
	s := &NodeStats{
		cfg:       cfg,
		schema:    schema,
		sc:        sc,
		counts:    make([]float64, schema.NumClasses),
		observers: make([]*attrobs.Gaussian, schema.NumFeatures),
	}
	if schema.HasCategorical() {
		s.cats = make([]*attrobs.Categorical, schema.NumFeatures)
	}
	for j := range s.observers {
		if s.cats != nil && schema.IsCategorical(j) {
			s.cats[j] = attrobs.NewCategorical(schema.NumClasses, schema.Cardinality(j))
			continue
		}
		s.observers[j] = attrobs.NewGaussian(schema.NumClasses, cfg.Bins)
	}
	if cfg.LeafMode != MajorityClass {
		s.nb = nbayes.New(schema.NumFeatures, schema.NumClasses)
	}
	if cfg.SubspaceSize > 0 && cfg.SubspaceSize < schema.NumFeatures && rng != nil {
		s.features = sc.sampleSubspace(rng, schema.NumFeatures, cfg.SubspaceSize)
	}
	return s
}

// ServingClone returns a read-only deep copy of the prediction-relevant
// state — class counts, the Naive Bayes leaf model and the adaptive-mode
// accuracy tallies — for serving snapshots. Observers, the feature
// subset and the shared scratch are learn/split-path state and are left
// nil: only Predict, Proba and MajorityClass may be called on the clone.
func (s *NodeStats) ServingClone() *NodeStats {
	c := &NodeStats{
		cfg:      s.cfg,
		schema:   s.schema,
		counts:   append([]float64(nil), s.counts...),
		mcOK:     s.mcOK,
		nbOK:     s.nbOK,
		seen:     s.seen,
		lastEval: s.lastEval,
	}
	if s.nb != nil {
		c.nb = s.nb.Clone()
	}
	return c
}

// featureSet returns the observed features (all when no subspace).
func (s *NodeStats) featureSet() []int {
	if s.features != nil {
		return s.features
	}
	return s.sc.all
}

// Observe updates the statistics with a labelled instance. For the
// adaptive mode it first scores both candidate predictors on the instance
// (test-then-update inside the leaf).
func (s *NodeStats) Observe(x []float64, y int, w float64) {
	if y < 0 || y >= len(s.counts) || w <= 0 {
		return
	}
	if s.cfg.LeafMode == NaiveBayesAdaptive && s.seen > 0 {
		if s.MajorityClass() == y {
			s.mcOK += w
		}
		// Score NB through the shared log-posterior buffer — this is the
		// single-writer learn path, so borrowing tree scratch is safe and
		// keeps Observe allocation-free.
		if linalg.ArgMax(s.nb.LogPosteriors(x, s.sc.logPost)) == y {
			s.nbOK += w
		}
	}
	s.counts[y] += w
	s.seen += w
	for _, j := range s.featureSet() {
		if s.cats != nil && s.cats[j] != nil {
			s.cats[j].Observe(x[j], y, w)
		} else {
			s.observers[j].Observe(x[j], y, w)
		}
	}
	if s.nb != nil {
		s.nb.Observe(x, y, w)
	}
}

// Weight returns the accumulated observation weight.
func (s *NodeStats) Weight() float64 { return s.seen }

// Counts returns the class-count vector (not a copy).
func (s *NodeStats) Counts() []float64 { return s.counts }

// MajorityClass returns the most frequent class (0 when empty).
func (s *NodeStats) MajorityClass() int {
	k := linalg.ArgMax(s.counts)
	if k < 0 {
		return 0
	}
	return k
}

// Pure reports whether at most one class has been observed.
func (s *NodeStats) Pure() bool {
	nonzero := 0
	for _, c := range s.counts {
		if c > 0 {
			nonzero++
		}
	}
	return nonzero <= 1
}

// Predict returns the class predicted under the configured leaf mode.
func (s *NodeStats) Predict(x []float64) int {
	switch s.cfg.LeafMode {
	case NaiveBayes:
		if s.nb.Total() > 0 {
			return s.nb.Predict(x)
		}
	case NaiveBayesAdaptive:
		if s.nb.Total() > 0 && s.nbOK > s.mcOK {
			return s.nb.Predict(x)
		}
	}
	return s.MajorityClass()
}

// Proba writes class probabilities into out under the configured mode.
func (s *NodeStats) Proba(x []float64, out []float64) []float64 {
	c := s.schema.NumClasses
	if out == nil {
		out = make([]float64, c)
	}
	useNB := false
	switch s.cfg.LeafMode {
	case NaiveBayes:
		useNB = s.nb != nil && s.nb.Total() > 0
	case NaiveBayesAdaptive:
		useNB = s.nb != nil && s.nb.Total() > 0 && s.nbOK > s.mcOK
	}
	if useNB {
		return s.nb.Proba(x, out)
	}
	if s.seen == 0 {
		for k := range out {
			out[k] = 1 / float64(c)
		}
		return out
	}
	for k := range out {
		out[k] = s.counts[k] / s.seen
	}
	return out
}

// SeedChild pre-loads the class counts of a fresh child node with the
// estimated branch distribution of the split that created it, mirroring
// the MOA behaviour that keeps majority-class predictions sensible
// immediately after a split.
func (s *NodeStats) SeedChild(dist []float64) {
	for k, v := range dist {
		if k < len(s.counts) && v > 0 {
			s.counts[k] = v
			s.seen += v
		}
	}
}

// splitRef is a lightweight scored split reference — no branch
// distributions — used on the zero-alloc scan path.
type splitRef struct {
	feature   int
	threshold float64
	merit     float64
	kind      model.SplitKind
	mask      uint64
}

// scanGate decides whether a split attempt scans its features on the
// shared worker pool: only when classes·|features| — the per-threshold
// work of all Gaussian CDF evaluations — reaches minWork, because a small
// scan costs less than the hand-off (on a 2-vCPU host, m = 76 binary
// scans ran ~10% slower pooled; Gas*-shaped m = 128, 6-class ones gained). parts overrides the number of
// feature ranges (0: one per pool goroutine). Tests force either path
// through this variable; it is not a knob.
var scanGate = struct {
	minWork int
	parts   int
}{minWork: 512}

// featureSplit is one feature's best candidate of a parallel scan.
type featureSplit struct {
	ref   splitRef
	found bool
}

// scanTask is the pool task of a parallel scan: part i scores a
// contiguous range of the feature set into Scratch.results.
type scanTask struct {
	s     *NodeStats
	feats []int
	parts int
}

func (st *scanTask) Part(i int) {
	sc := st.s.sc
	lo, hi := i*len(st.feats)/st.parts, (i+1)*len(st.feats)/st.parts
	for k := lo; k < hi; k++ {
		r := &sc.results[k]
		r.ref, r.found = st.s.featureSplit(st.feats[k], sc.partScans[i])
	}
}

// featureSplit scores feature j's best candidate split with the scan
// buffers buf: a threshold split for a numeric feature, a native
// equality/subset split for a categorical one.
func (s *NodeStats) featureSplit(j int, buf *attrobs.ScanBuf) (splitRef, bool) {
	if s.cats != nil && s.cats[j] != nil {
		kind, thr, mask, m, f := s.cats[j].BestSplit(s.counts, s.cfg.Criterion, buf)
		return splitRef{feature: j, threshold: thr, merit: m, kind: kind, mask: mask}, f
	}
	thr, m, f := s.observers[j].BestThreshold(s.counts, s.cfg.Criterion, buf)
	return splitRef{feature: j, threshold: thr, merit: m}, f
}

// bestSplits scans the observed features for the two highest-merit
// candidate splits through the shared scan buffers, allocating nothing.
// Numeric features propose threshold splits; categorical features
// propose native equality/subset splits from their exact level counts.
// The features are scored into per-feature results — in parallel ranges
// on the worker pool for a wide scan — and reduced in feature order, so
// every path picks the same splits.
func (s *NodeStats) bestSplits() (best, second splitRef, ok bool) {
	best.merit, second.merit = math.Inf(-1), math.Inf(-1)
	feats := s.featureSet()
	parts := 1
	if s.schema.NumClasses*len(feats) >= scanGate.minWork {
		parts = scanGate.parts
		if parts <= 0 {
			parts = pool.Helpers() + 1
		}
		parts = min(parts, len(feats))
	}
	sc := s.sc
	for len(sc.partScans) < parts {
		sc.partScans = append(sc.partScans, sc.newScanBuf())
	}
	sc.task = scanTask{s: s, feats: feats, parts: parts}
	sc.group.Run(&sc.task, parts)
	sc.task = scanTask{}
	for _, r := range sc.results[:len(feats)] {
		if !r.found {
			continue
		}
		if r.ref.merit > best.merit {
			second = best
			best = r.ref
		} else if r.ref.merit > second.merit {
			second = r.ref
		}
		ok = true
	}
	return best, second, ok
}

// candOf converts a scan reference into a CandidateSplit (no Post).
func candOf(r splitRef) attrobs.CandidateSplit {
	return attrobs.CandidateSplit{Feature: r.feature, Threshold: r.threshold, Merit: r.merit, Kind: r.kind, Mask: r.mask}
}

// BestSplits returns the two highest-merit candidates across the observed
// features, ordered best first. ok is false when no feature has usable
// spread. The candidates carry no Post distributions — materialise them
// with DistributionsFor when a split is actually installed; the scan
// itself stays allocation-free.
func (s *NodeStats) BestSplits() (best, second attrobs.CandidateSplit, ok bool) {
	b, sec, ok := s.bestSplits()
	return candOf(b), candOf(sec), ok
}

// DistributionsAt estimates the branch class distributions of splitting
// this node on a numeric (feature, threshold) test, from the node's own
// observers.
func (s *NodeStats) DistributionsAt(feature int, threshold float64) (left, right []float64) {
	if feature < 0 || feature >= len(s.observers) || s.observers[feature] == nil {
		return nil, nil
	}
	return s.observers[feature].DistributionsAt(threshold)
}

// DistributionsFor returns the branch class distributions of a candidate
// split of any kind, from the node's own observers: Gaussian CDF
// estimates for threshold tests, exact level-count sums for categorical
// tests.
func (s *NodeStats) DistributionsFor(c attrobs.CandidateSplit) (left, right []float64) {
	if c.Feature < 0 || c.Feature >= s.schema.NumFeatures {
		return nil, nil
	}
	if s.cats != nil && s.cats[c.Feature] != nil {
		return s.cats[c.Feature].DistributionsFor(c.Kind, c.Threshold, c.Mask)
	}
	return s.DistributionsAt(c.Feature, c.Threshold)
}

// MeritAt re-scores a numeric (feature, threshold) split from the node's
// own observers without allocating.
func (s *NodeStats) MeritAt(feature int, threshold float64) float64 {
	if feature < 0 || feature >= len(s.observers) || s.observers[feature] == nil {
		return 0
	}
	return s.observers[feature].MeritAt(threshold, s.counts, s.cfg.Criterion, s.sc.scan)
}

// MeritFor re-scores a candidate split of any kind without allocating —
// EFDT's re-evaluation hot path.
func (s *NodeStats) MeritFor(c attrobs.CandidateSplit) float64 {
	if c.Feature < 0 || c.Feature >= s.schema.NumFeatures {
		return 0
	}
	if s.cats != nil && s.cats[c.Feature] != nil {
		return s.cats[c.Feature].MeritFor(c.Kind, c.Threshold, c.Mask, s.counts, s.cfg.Criterion, s.sc.scan)
	}
	return s.MeritAt(c.Feature, c.Threshold)
}

// ShouldAttempt reports whether enough weight accumulated since the last
// split attempt (the grace-period gate) and marks the attempt.
func (s *NodeStats) ShouldAttempt() bool {
	if s.seen-s.lastEval < s.cfg.GracePeriod {
		return false
	}
	s.lastEval = s.seen
	return true
}

// Bound returns the current Hoeffding bound for this node's weight.
func (s *NodeStats) Bound() float64 {
	return split.HoeffdingBound(s.cfg.Criterion.Range(s.schema.NumClasses), s.cfg.Delta, s.seen)
}

// DecideSplit applies the VFDT split rule: split on best when
// best-second > epsilon or epsilon < tau, requiring positive merit. The
// scan allocates nothing; the winning candidate's branch distributions
// are materialised only when the rule actually passes (a structural
// event).
func (s *NodeStats) DecideSplit() (attrobs.CandidateSplit, bool) {
	if s.Pure() {
		return attrobs.CandidateSplit{}, false
	}
	best, second, ok := s.bestSplits()
	if !ok || best.merit <= 0 {
		return attrobs.CandidateSplit{}, false
	}
	eps := s.Bound()
	secondMerit := 0.0
	if !math.IsInf(second.merit, -1) {
		secondMerit = second.merit
	}
	if best.merit-secondMerit > eps || eps < s.cfg.Tau {
		cand := candOf(best)
		left, right := s.DistributionsFor(cand)
		cand.Post = [][]float64{left, right}
		return cand, true
	}
	return attrobs.CandidateSplit{}, false
}
