package core

import (
	"math"
	"sort"

	"repro/internal/glm"
	"repro/internal/linalg"
	"repro/internal/model"
	"repro/internal/stream"
)

// node is one DMT node. Leaf and inner nodes are structurally identical —
// both train a simple model and maintain loss/gradient/count accumulators
// and candidate statistics (Figure 2 of the paper) — an inner node
// additionally carries a binary split: a numeric threshold test
// (x[feature] <= threshold goes left), a categorical equality test
// (x[feature] == threshold, the threshold holding the level code), or a
// level-subset membership test (mask bit x[feature] set), discriminated
// by kind and routed through the shared model.RouteSplit predicate.
type node struct {
	mod glm.Model

	// Accumulators of Algorithm 1 (lines 1-3) over the node's current
	// epoch: summed negative log-likelihood, summed gradient and count.
	loss float64
	grad []float64
	n    float64

	// Candidate statistics (Algorithm 1, lines 4-17) in the per-feature
	// sorted-threshold index, capped and partially replaceable per
	// Section V-D.
	idx *candIndex

	feature     int
	threshold   float64
	kind        model.SplitKind
	mask        uint64
	left, right *node
	depth       int

	// snap caches the immutable SnapNode that froze this subtree at the
	// last publish. update() clears it along every learn-visited path
	// (conservative: any node that received rows may have changed), so
	// Snapshot() re-freezes only cache misses — copy-on-write publishing.
	snap *model.SnapNode
}

func (n *node) isLeaf() bool { return n.left == nil }

// resetEpoch clears the accumulators and the candidate pool. It runs when
// the node splits or its subtree is replaced, so that the node's set I_t
// and its children's sets J_t restart together and the union property
// behind gains (4) and (5) holds (Lemma 2).
func (n *node) resetEpoch() {
	n.loss = 0
	linalg.Zero(n.grad)
	n.n = 0
	n.idx.reset()
}

// maxCatLevels bounds the equality candidates of one categorical feature
// and the width of a subset mask (which is a uint64 of level bits).
const maxCatLevels = 64

// featureSlotCap returns the stored-pool share of one feature:
// CandidateFactor thresholds for a numeric feature, one equality
// candidate per level (capped at maxCatLevels) for a categorical one.
func featureSlotCap(cfg *Config, schema stream.Schema, j int) int {
	if c := schema.Cardinality(j); c > 0 {
		if c > maxCatLevels {
			return maxCatLevels
		}
		return c
	}
	return cfg.CandidateFactor
}

// candidateCap returns the pool capacity for a schema: the sum of the
// per-feature shares. For an all-numeric schema this is the paper's
// CandidateFactor * NumFeatures.
func candidateCap(cfg *Config, schema stream.Schema) int {
	total := 0
	for j := 0; j < schema.NumFeatures; j++ {
		total += featureSlotCap(cfg, schema, j)
	}
	return total
}

// updateStats performs the per-time-step statistics update of Algorithm 1
// on one node: a single pass over the batch computes each row's loss and
// gradient once, feeding (a) the node accumulators, (b) the candidate
// index, and (c) the mean-gradient SGD step of the simple model.
//
// Candidate statistics are maintained through the sorted-threshold index:
// the batch's proposals are provisionally inserted first, then each row
// charges its loss/gradient to exactly ONE bucket per feature (the last
// accepting threshold), and one fused walk per feature turns the buckets
// into running suffix sums, adds them into the candidates' left-branch
// totals and caches each candidate's gain norms. The old pool folded
// every row into every accepting candidate — O(rows · 3m · w); the index
// pays O(rows · m · (log k + w)) for the passes plus O(3m · w) for the
// walk, split into feature ranges on the worker pool for large batches.
// All working memory comes from the tree's scratch arena, so a
// steady-state call allocates nothing.
func (t *Tree) updateStats(n *node, b stream.Batch) {
	rows := b.Len()
	if rows == 0 {
		return
	}
	cfg := &t.cfg
	sc := t.scratch
	m := t.schema.NumFeatures
	w := n.mod.NumWeights()

	t.propose(n, b)
	sc.reserveRows(rows, m, w)

	batchGrad := sc.batchGrad
	linalg.Zero(batchGrad)
	var batchLoss float64
	var used float64

	// Pass 1 (row-major): compute each usable row's loss and gradient
	// once, cache them (and the row's feature values, transposed to
	// column-major), feed the node accumulators and take the SGD step.
	nu := 0
	for i := 0; i < rows; i++ {
		x := b.X[i]
		// Transpose the row while testing finiteness (v*0 is NaN exactly
		// for NaN/±Inf): one pass instead of a check pass plus a copy
		// pass. A rejected row's partial column writes are harmless — the
		// next accepted row overwrites the same nu column position.
		var nonFinite float64
		for j := 0; j < m; j++ {
			v := x[j]
			nonFinite += v * 0
			sc.cols[j*sc.rowCap+nu] = v
		}
		if nonFinite != 0 {
			continue
		}
		rowGrad := sc.rowGrads[nu*w : nu*w+w : nu*w+w]
		li := n.mod.RowLossGrad(x, b.Y[i], rowGrad)
		batchLoss += li
		linalg.Add(batchGrad, rowGrad)
		sc.rowLoss[nu] = li
		nu++
		used++
		// Per-instance SGD with a constant learning rate (Section V-A),
		// optionally warm-up boosted (Section VI-E1). The same row
		// gradient feeds the accumulators, the candidate statistics and
		// the step — computed exactly once (Section IV-B).
		n.mod.ApplyGrad(rowGrad, -cfg.effectiveLR(n.n+used))
	}
	if used == 0 {
		t.dropAllProposals(n)
		return
	}
	if cfg.L1 > 0 {
		// Proximal L1 step (sparsity extension): the per-instance
		// proximal-SGD threshold lr*L1, aggregated over the batch.
		n.mod.Shrink(cfg.L1 * cfg.LearningRate * used)
	}

	// Algorithm 1 lines 1-3: increment loss, gradient and count.
	n.loss += batchLoss
	linalg.Add(n.grad, batchGrad)
	n.n += used

	// Pass 2 (feature-major): charge every cached row to its one bucket
	// per feature and fold each candidate's suffix total into its arena
	// slot, caching the slot's gain norms (scan.go).
	t.scan(n, nu)

	t.admit(n, batchLoss, batchGrad, used)
}

// quartileFracs are the cold-start proposal quantiles (hoisted so the
// propose loop does not rebuild the literal per feature per batch).
var quartileFracs = [3]float64{0.25, 0.5, 0.75}

// propose draws new candidate values from the current batch and inserts
// them provisionally into the node's candidate index, recording them in
// the scratch proposal list for admit to resolve. On a node's first batch
// it proposes the three quartiles of every numeric feature and every
// batch-distinct level of every categorical one (bounded by the feature's
// pool share); afterwards it proposes one randomly sampled row value per
// feature. Numeric values are quantised, and the index insert
// deduplicates against stored candidates and earlier proposals.
func (t *Tree) propose(n *node, b stream.Batch) {
	sc := t.scratch
	sc.props = sc.props[:0]
	m := t.schema.NumFeatures

	if n.idx.size() == 0 {
		// Cold start: quartiles of each numeric feature within the batch,
		// selected on one reusable sorted scratch buffer; distinct levels
		// of each categorical feature (the insert deduplicates repeats).
		vals := sc.quartVals
		for j := 0; j < m; j++ {
			if t.schema.IsCategorical(j) {
				capJ := featureSlotCap(&t.cfg, t.schema, j)
				added := 0
				for i := range b.X {
					if added >= capJ {
						break
					}
					if t.addProposal(n, j, b.X[i][j]) {
						added++
					}
				}
				continue
			}
			vals = vals[:0]
			for i := range b.X {
				if v := b.X[i][j]; !math.IsNaN(v) && !math.IsInf(v, 0) {
					vals = append(vals, v)
				}
			}
			if len(vals) == 0 {
				continue
			}
			sort.Float64s(vals)
			for _, q := range quartileFracs {
				t.addProposal(n, j, vals[int(q*float64(len(vals)-1))])
			}
		}
		sc.quartVals = vals[:0]
		return
	}

	for j := 0; j < m; j++ {
		i := t.rng.Intn(b.Len())
		t.addProposal(n, j, b.X[i][j])
	}
}

// addProposal inserts a value into the candidate index with zeroed
// statistics and reports whether it went in. Numeric values are
// quantised; categorical values must be valid level codes and are stored
// exactly (an equality test needs the code, not a rounding of it).
// Duplicates of stored candidates or earlier proposals are rejected by
// the index itself.
func (t *Tree) addProposal(n *node, feature int, value float64) bool {
	if c := t.schema.Cardinality(feature); c > 0 {
		// The Trunc test also rejects NaN; the range tests reject ±Inf.
		if value != math.Trunc(value) || value < 0 || value >= float64(c) {
			return false
		}
	} else {
		value = t.cfg.quantize(value)
		if math.IsNaN(value) || math.IsInf(value, 0) {
			return false
		}
	}
	slot, ok := n.idx.insert(feature, value)
	if !ok {
		return false
	}
	sc := t.scratch
	sc.propSlot[slot] = true
	sc.props = append(sc.props, proposal{feature: int32(feature), slot: slot, value: value})
	return true
}

// dropAllProposals removes every provisional proposal again — the batch
// contributed no usable rows, so there is nothing to admit.
func (t *Tree) dropAllProposals(n *node) {
	sc := t.scratch
	for i := range sc.props {
		p := &sc.props[i]
		sc.propSlot[p.slot] = false
		n.idx.remove(int(p.feature), p.value)
	}
	sc.props = sc.props[:0]
}

// admit ranks this batch's proposals by their batch-local gain estimate
// and resolves them against the pool: free slots first, then replacement
// of the weakest stored candidates, limited to ReplacementRate of the
// pool per time step (Section V-D). Replaced candidates can always
// reappear later if their importance returns after concept drift. A
// proposal's lifetime statistics start at this batch, so its arena stats
// are exactly its batch-local statistics.
func (t *Tree) admit(n *node, batchLoss float64, batchGrad []float64, used float64) {
	sc := t.scratch
	if len(sc.props) == 0 {
		return
	}
	cfg := &t.cfg
	ix := n.idx

	// A proposal's arena statistics are its batch statistics, so its gain
	// is taken against the batch: the cached ||g||² applies, the norm of
	// the right branch is against batchGrad.
	ix.refreshNorms(n.grad)
	scored := sc.scored[:0]
	for _, p := range sc.props {
		g, ok := gainFromNorms(batchLoss, batchLoss, used, ix.loss[p.slot], ix.n[p.slot],
			ix.normG[p.slot], linalg.Norm2SqDiff(batchGrad, ix.gradOf(p.slot)), cfg.LearningRate, 1)
		if !ok {
			continue // stays flagged as proposal; swept below
		}
		p.gain = g
		scored = append(scored, p)
	}
	sc.sortProposals(scored)

	capSize := candidateCap(cfg, t.schema)
	stored := ix.size() - len(sc.props) // pool size before this batch
	i := 0
	for ; i < len(scored) && stored+i < capSize; i++ {
		sc.propSlot[scored[i].slot] = false // admitted into a free slot
	}

	if i < len(scored) && stored > 0 {
		// Replacement pass: the stored pool ranked by its lifetime gain
		// estimate; only the weakest ReplacementRate fraction may be
		// evicted this step.
		maxRepl := int(cfg.ReplacementRate * float64(capSize))
		if maxRepl > 0 {
			gains := sc.victimGain[:0]
			poss := sc.victimPos[:0]
			minGain := math.Inf(1)
			for pos, e := range ix.entries {
				if sc.propSlot[e.slot] {
					continue // this batch's proposals are not victims
				}
				g, ok := slotGain(n, e.slot, n.loss, cfg.LearningRate, 1)
				if !ok {
					g = math.Inf(-1)
				}
				if g < minGain {
					minGain = g
				}
				gains = append(gains, g)
				poss = append(poss, int32(pos))
			}
			sc.victimGain, sc.victimPos = gains, poss
			// The strongest remaining proposal must beat the weakest stored
			// candidate for any eviction to happen; in the common case it
			// does not, and the victim ranking is never materialised.
			if scored[i].gain > minGain {
				sc.sortVictims()
				replaced := 0
				for v := 0; v < len(poss) && i < len(scored) && replaced < maxRepl; v++ {
					if scored[i].gain <= gains[v] {
						break // both rankings sorted; no further improvement possible
					}
					sc.drop[ix.entries[poss[v]].slot] = true
					sc.propSlot[scored[i].slot] = false // admitted by replacement
					i++
					replaced++
				}
			}
			sc.victimGain, sc.victimPos = gains[:0], poss[:0]
		}
	}

	// Everything still flagged as a proposal was not admitted.
	for _, p := range sc.props {
		if sc.propSlot[p.slot] {
			sc.drop[p.slot] = true
			sc.propSlot[p.slot] = false
		}
	}
	t.sweepDropped(n)
	sc.props = sc.props[:0]
	sc.scored = scored[:0]
}

// sweepDropped removes every index entry whose arena slot is flagged in
// the scratch drop set, clearing the flags as it goes.
func (t *Tree) sweepDropped(n *node) {
	sc := t.scratch
	ix := n.idx
	for j := ix.m - 1; j >= 0; j-- {
		lo, hi := ix.featRange(j)
		for pos := hi - 1; pos >= lo; pos-- {
			slot := ix.entries[pos].slot
			if sc.drop[slot] {
				sc.drop[slot] = false
				ix.removeAt(j, pos)
			}
		}
	}
}

// splitChoice is the outcome of a candidate evaluation: the argmax test
// over the stored pool — a numeric threshold, a categorical equality
// (threshold holds the level code), or a level-subset membership test
// assembled from the equality candidates' disjoint statistics.
type splitChoice struct {
	feature   int
	kind      model.SplitKind
	threshold float64
	mask      uint64
	gain      float64
}

// matches reports whether the choice describes the node's installed test.
func (c splitChoice) matches(n *node) bool {
	if c.feature != n.feature || c.kind != n.kind {
		return false
	}
	if c.kind == model.SplitSubset {
		return c.mask == n.mask
	}
	return c.threshold == n.threshold
}

// bestCandidate evaluates gain (3) (at a leaf, referenceLoss = the node's
// own accumulated loss) or gain (4) (at an inner node, referenceLoss = the
// subtree's summed leaf loss) over the stored pool and returns the argmax
// split. skipCurrent excludes the currently installed split of an inner
// node.
//
// Numeric features score each stored threshold. Categorical features
// score each stored level as an equality test, and — when the cardinality
// fits a subset mask and at least three levels carry data — additionally
// scan level subsets: because the equality branches are disjoint, their
// loss/count/gradient statistics are additive, so a subset's left-branch
// totals are exact sums, not approximations. Following the classic CART
// ordering argument, only prefixes of the levels ranked by individual
// gain are scanned (sizes 2..len-1; size 1 is the equality candidate, the
// full set is no split at all), keeping the scan linear in levels.
func (t *Tree) bestCandidate(n *node, referenceLoss float64, skipCurrent bool) (splitChoice, bool) {
	cfg := &t.cfg
	ix := n.idx
	sc := t.scratch
	best := splitChoice{gain: math.Inf(-1)}
	found := false
	ix.refreshNorms(n.grad)
	for j := 0; j < ix.m; j++ {
		lo, hi := ix.featRange(j)
		if hi == lo {
			continue
		}
		if !t.schema.IsCategorical(j) {
			for pos := lo; pos < hi; pos++ {
				e := ix.entries[pos]
				g, ok := slotGain(n, e.slot, referenceLoss, cfg.LearningRate, cfg.MinBranchWeight)
				if !ok {
					continue
				}
				c := splitChoice{feature: j, kind: model.SplitThreshold, threshold: e.value, gain: g}
				if c.gain > best.gain && !(skipCurrent && c.matches(n)) {
					best, found = c, true
				}
			}
			continue
		}
		// Equality candidates. Gains are computed once with the loose
		// minN=1 gate so they double as the subset ordering score; the
		// MinBranchWeight gate of the equality candidates applies on top.
		ord := sc.catOrd[:0]
		gains := sc.catGain[:0]
		for pos := lo; pos < hi; pos++ {
			e := ix.entries[pos]
			g, ok := slotGain(n, e.slot, referenceLoss, cfg.LearningRate, 1)
			if !ok {
				continue
			}
			if ix.n[e.slot] >= cfg.MinBranchWeight && n.n-ix.n[e.slot] >= cfg.MinBranchWeight {
				c := splitChoice{feature: j, kind: model.SplitEquality, threshold: e.value, gain: g}
				if c.gain > best.gain && !(skipCurrent && c.matches(n)) {
					best, found = c, true
				}
			}
			ord = append(ord, int32(pos))
			gains = append(gains, g)
		}
		if t.schema.Cardinality(j) <= maxCatLevels && len(ord) >= 3 {
			sc.catOrd, sc.catGain = ord, gains
			sc.sortCat()
			ord, gains = sc.catOrd, sc.catGain
			cumGrad := sc.catGrad
			linalg.Zero(cumGrad)
			var cumLoss, cumN float64
			var mask uint64
			for s := 0; s < len(ord)-1; s++ {
				e := ix.entries[ord[s]]
				cumLoss += ix.loss[e.slot]
				cumN += ix.n[e.slot]
				linalg.Add(cumGrad, ix.gradOf(e.slot))
				mask |= 1 << uint64(e.value)
				if s == 0 {
					continue // a single level is the equality candidate above
				}
				g, ok := candidateGain(referenceLoss, n.loss, n.grad, n.n,
					cumLoss, cumGrad, cumN, cfg.LearningRate, cfg.MinBranchWeight)
				if !ok {
					continue
				}
				c := splitChoice{feature: j, kind: model.SplitSubset, mask: mask, gain: g}
				if c.gain > best.gain && !(skipCurrent && c.matches(n)) {
					best, found = c, true
				}
			}
		}
		sc.catOrd, sc.catGain = ord[:0], gains[:0]
	}
	return best, found
}

// subtreeLeafStats walks the subtree and returns the summed leaf loss and
// the number of leaves — the Σ_J L(J) and L_sub of gains (4) and (5).
func subtreeLeafStats(n *node) (lossSum float64, leaves int) {
	if n.isLeaf() {
		return n.loss, 1
	}
	ll, lc := subtreeLeafStats(n.left)
	rl, rc := subtreeLeafStats(n.right)
	return ll + rl, lc + rc
}
