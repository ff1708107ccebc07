package attrobs

import (
	"math"

	"repro/internal/model"
)

// Categorical observes one categorical feature as exact per-(level,
// class) counts — the nominal-attribute counterpart of the Gaussian
// numeric observer. Where the Gaussian estimates branch distributions
// from fitted densities, the categorical branch distributions are exact
// sums of the observed counts, so equality and subset splits are scored
// without any distributional assumption. All buffers are sized from the
// declared cardinality at construction, so the steady state allocates
// nothing.
type Categorical struct {
	numClasses int
	card       int
	// counts is level-major: counts[level*numClasses+class].
	counts []float64
	// levelTot[level] is the total observed weight of one level.
	levelTot []float64
	total    float64
	// seen is the number of levels with positive observed weight.
	seen int
}

// NewCategorical returns an observer for a feature with the given
// declared cardinality over numClasses classes.
func NewCategorical(numClasses, cardinality int) *Categorical {
	return &Categorical{
		numClasses: numClasses,
		card:       cardinality,
		counts:     make([]float64, cardinality*numClasses),
		levelTot:   make([]float64, cardinality),
	}
}

// Clone returns an independent deep copy.
func (c *Categorical) Clone() *Categorical {
	n := *c
	n.counts = append([]float64(nil), c.counts...)
	n.levelTot = append([]float64(nil), c.levelTot...)
	return &n
}

// Cardinality returns the declared number of levels.
func (c *Categorical) Cardinality() int { return c.card }

// SeenLevels returns the number of levels observed so far.
func (c *Categorical) SeenLevels() int { return c.seen }

// Observe records a level code for a class with the given weight.
// Non-integral, non-finite and out-of-range codes are ignored, exactly
// like the Gaussian observer ignores non-finite values.
func (c *Categorical) Observe(value float64, class int, weight float64) {
	if class < 0 || class >= c.numClasses {
		return
	}
	if value != math.Trunc(value) || value < 0 || value >= float64(c.card) {
		return
	}
	lv := int(value)
	if c.levelTot[lv] == 0 && weight > 0 {
		c.seen++
	}
	c.counts[lv*c.numClasses+class] += weight
	c.levelTot[lv] += weight
	c.total += weight
}

// ClassWeight returns the observed weight of a class across all levels.
func (c *Categorical) ClassWeight(class int) float64 {
	if class < 0 || class >= c.numClasses {
		return 0
	}
	w := 0.0
	for lv := 0; lv < c.card; lv++ {
		w += c.counts[lv*c.numClasses+class]
	}
	return w
}

// Pdf returns the Laplace-smoothed conditional probability P(level |
// class), the Naive Bayes likelihood of a nominal attribute. Unknown
// codes and unseen classes are uninformative (1).
func (c *Categorical) Pdf(value float64, class int) float64 {
	if class < 0 || class >= c.numClasses {
		return 1
	}
	if value != math.Trunc(value) || value < 0 || value >= float64(c.card) {
		return 1
	}
	cw := c.ClassWeight(class)
	if cw == 0 {
		return 1
	}
	lv := int(value)
	return (c.counts[lv*c.numClasses+class] + 1) / (cw + float64(c.card))
}

// leftCounts accumulates the left-branch class counts of a split into
// left; callers derive the right branch from the pre-split counts.
func (c *Categorical) leftCounts(kind model.SplitKind, level int, mask uint64, left []float64) {
	for k := range left {
		left[k] = 0
	}
	switch kind {
	case model.SplitEquality:
		if level >= 0 && level < c.card {
			copy(left, c.counts[level*c.numClasses:(level+1)*c.numClasses])
		}
	case model.SplitSubset:
		for lv := 0; lv < c.card && lv < 64; lv++ {
			if mask&(1<<uint(lv)) == 0 || c.levelTot[lv] == 0 {
				continue
			}
			row := c.counts[lv*c.numClasses : (lv+1)*c.numClasses]
			for k := range left {
				left[k] += row[k]
			}
		}
	}
}

// DistributionsFor returns the exact branch class-count vectors of an
// equality (Threshold = level code) or subset (Mask = level bitset)
// split. Called at install time, so the two allocations are acceptable;
// the scan hot path uses DistributionsForInto.
func (c *Categorical) DistributionsFor(kind model.SplitKind, threshold float64, mask uint64) (left, right []float64) {
	left = make([]float64, c.numClasses)
	right = make([]float64, c.numClasses)
	c.DistributionsForInto(kind, threshold, mask, left, right)
	return left, right
}

// DistributionsForInto computes the branch class-count vectors into
// caller-owned buffers of length >= the class count.
func (c *Categorical) DistributionsForInto(kind model.SplitKind, threshold float64, mask uint64, left, right []float64) {
	lv := -1
	if threshold == math.Trunc(threshold) && threshold >= 0 && threshold < float64(c.card) {
		lv = int(threshold)
	}
	c.leftCounts(kind, lv, mask, left)
	for k := 0; k < c.numClasses; k++ {
		tot := 0.0
		for l := 0; l < c.card; l++ {
			tot += c.counts[l*c.numClasses+k]
		}
		right[k] = tot - left[k]
	}
}

// MeritFor scores one equality/subset split with crit against the
// pre-split counts, using buf's buffers. It allocates nothing.
func (c *Categorical) MeritFor(kind model.SplitKind, threshold float64, mask uint64, pre []float64, crit Meriter, buf *ScanBuf) float64 {
	lv := -1
	if threshold == math.Trunc(threshold) && threshold >= 0 && threshold < float64(c.card) {
		lv = int(threshold)
	}
	c.leftCounts(kind, lv, mask, buf.left)
	for k := range pre {
		buf.right[k] = pre[k] - buf.left[k]
	}
	return crit.Merit(pre, buf.post)
}

// BestSplit scans this feature's native categorical splits for the
// highest merit: every seen level as an equality split, and — when the
// cardinality fits a 64-bit mask and at least three levels were seen —
// level-subset splits built from the CART prefix ordering (levels sorted
// by the probability of a pivot class; for two-class problems the best
// subset split is provably a prefix of that order, for more classes it
// is the customary heuristic). Like BestThreshold it materialises no
// branch distributions and allocates nothing; callers fetch
// distributions with DistributionsFor once a split is installed. Masks
// with a single level collapse to the equality kind, and unseen levels
// are never members of a mask, so they route right deterministically.
func (c *Categorical) BestSplit(pre []float64, crit Meriter, buf *ScanBuf) (kind model.SplitKind, threshold float64, mask uint64, merit float64, ok bool) {
	if c.seen < 2 {
		return 0, 0, 0, 0, false
	}
	merit = math.Inf(-1)
	total, impurity := crit.PreImpurity(pre)

	// Equality scan: one candidate per seen level.
	for lv := 0; lv < c.card; lv++ {
		if c.levelTot[lv] == 0 {
			continue
		}
		row := c.counts[lv*c.numClasses : (lv+1)*c.numClasses]
		copy(buf.left, row)
		for k := range pre {
			buf.right[k] = pre[k] - row[k]
		}
		if m := crit.MeritFrom(total, impurity, buf.post); m > merit {
			kind, threshold, mask, merit = model.SplitEquality, float64(lv), 0, m
		}
	}

	// Subset scan: prefixes of the levels ordered by P(pivot | level).
	if c.card <= 64 && c.seen >= 3 {
		pivot := 0
		best := math.Inf(-1)
		for k, w := range pre[:c.numClasses] {
			if w > best {
				pivot, best = k, w
			}
		}
		ord, score := buf.levelBufs(c.card)
		n := 0
		for lv := 0; lv < c.card; lv++ {
			if c.levelTot[lv] == 0 {
				continue
			}
			ord[n] = lv
			score[n] = c.counts[lv*c.numClasses+pivot] / c.levelTot[lv]
			n++
		}
		// Insertion sort by descending score (n <= 64).
		for i := 1; i < n; i++ {
			l, s := ord[i], score[i]
			j := i - 1
			for j >= 0 && score[j] < s {
				ord[j+1], score[j+1] = ord[j], score[j]
				j--
			}
			ord[j+1], score[j+1] = l, s
		}
		for k := range buf.left {
			buf.left[k] = 0
		}
		var m uint64
		// Prefix sizes 2..n-1: size 1 is the equality scan, size n sends
		// every seen level left (no split).
		for i := 0; i < n-1; i++ {
			lv := ord[i]
			m |= 1 << uint(lv)
			row := c.counts[lv*c.numClasses : (lv+1)*c.numClasses]
			for k := range buf.left {
				buf.left[k] += row[k]
			}
			if i == 0 {
				continue
			}
			for k := range pre {
				buf.right[k] = pre[k] - buf.left[k]
			}
			if mm := crit.MeritFrom(total, impurity, buf.post); mm > merit {
				kind, threshold, mask, merit = model.SplitSubset, 0, m, mm
			}
		}
	}

	if math.IsInf(merit, -1) {
		return 0, 0, 0, 0, false
	}
	return kind, threshold, mask, merit, true
}
