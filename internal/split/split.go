// Package split provides the split-decision machinery shared by the
// Hoeffding-style trees: impurity criteria (information gain, Gini),
// standard deviation reduction for FIMT-DD, and the Hoeffding bound.
package split

import "math"

// Criterion scores a candidate binary split from class distributions.
type Criterion interface {
	// Merit returns the improvement of splitting pre into the post
	// branches (higher is better; <= 0 means no improvement).
	Merit(pre []float64, post [][]float64) float64
	// PreImpurity returns the parts of Merit that depend on pre alone —
	// its total weight and impurity — so a scan over many candidate
	// splits of one node computes them once.
	PreImpurity(pre []float64) (total, impurity float64)
	// MeritFrom is Merit with the pre-split part taken from PreImpurity;
	// it returns exactly Merit's bits.
	MeritFrom(total, impurity float64, post [][]float64) float64
	// Range returns the value range R of the merit for the Hoeffding
	// bound, given the number of classes.
	Range(numClasses int) float64
	// Name identifies the criterion in reports.
	Name() string
}

func sum(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// entropy returns the Shannon entropy (base 2) of an unnormalised
// class-count vector.
func entropy(counts []float64) float64 {
	total := sum(counts)
	if total <= 0 {
		return 0
	}
	var h float64
	for _, c := range counts {
		if c <= 0 {
			continue
		}
		p := c / total
		h -= p * math.Log2(p)
	}
	return h
}

// gini returns the Gini impurity of an unnormalised class-count vector.
func gini(counts []float64) float64 {
	total := sum(counts)
	if total <= 0 {
		return 0
	}
	var g float64 = 1
	for _, c := range counts {
		p := c / total
		g -= p * p
	}
	return g
}

// InfoGain is the information-gain criterion used by the VFDT.
type InfoGain struct{}

// Merit implements Criterion.
func (c InfoGain) Merit(pre []float64, post [][]float64) float64 {
	total, h := c.PreImpurity(pre)
	return c.MeritFrom(total, h, post)
}

// PreImpurity implements Criterion.
func (InfoGain) PreImpurity(pre []float64) (total, impurity float64) {
	return sum(pre), entropy(pre)
}

// MeritFrom implements Criterion.
func (InfoGain) MeritFrom(total, impurity float64, post [][]float64) float64 {
	if total <= 0 {
		return 0
	}
	after := 0.0
	for _, branch := range post {
		w := sum(branch) / total
		after += w * entropy(branch)
	}
	return impurity - after
}

// Range implements Criterion: log2(c), at least 1.
func (InfoGain) Range(numClasses int) float64 {
	if numClasses < 2 {
		numClasses = 2
	}
	return math.Log2(float64(numClasses))
}

// Name implements Criterion.
func (InfoGain) Name() string { return "info_gain" }

// GiniGain is the Gini-impurity reduction criterion.
type GiniGain struct{}

// Merit implements Criterion.
func (c GiniGain) Merit(pre []float64, post [][]float64) float64 {
	total, g := c.PreImpurity(pre)
	return c.MeritFrom(total, g, post)
}

// PreImpurity implements Criterion.
func (GiniGain) PreImpurity(pre []float64) (total, impurity float64) {
	return sum(pre), gini(pre)
}

// MeritFrom implements Criterion.
func (GiniGain) MeritFrom(total, impurity float64, post [][]float64) float64 {
	if total <= 0 {
		return 0
	}
	after := 0.0
	for _, branch := range post {
		w := sum(branch) / total
		after += w * gini(branch)
	}
	return impurity - after
}

// Range implements Criterion.
func (GiniGain) Range(int) float64 { return 1 }

// Name implements Criterion.
func (GiniGain) Name() string { return "gini" }

// HoeffdingBound returns epsilon = sqrt(R^2 ln(1/delta) / (2n)): with
// probability 1-delta the observed mean of a range-R variable after n
// observations is within epsilon of its true mean (Section I-B of the
// paper; Domingos & Hulten 2000).
func HoeffdingBound(rangeR, delta, n float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(rangeR * rangeR * math.Log(1/delta) / (2 * n))
}

// TargetStats accumulates the count, sum and sum of squares of a numeric
// target, the sufficient statistics of standard deviation reduction.
type TargetStats struct {
	N     float64
	Sum   float64
	SumSq float64
}

// Add incorporates a target value with the given weight.
func (t *TargetStats) Add(y, w float64) {
	t.N += w
	t.Sum += y * w
	t.SumSq += y * y * w
}

// Sub returns t minus other (used to derive right-branch statistics).
func (t TargetStats) Sub(other TargetStats) TargetStats {
	return TargetStats{N: t.N - other.N, Sum: t.Sum - other.Sum, SumSq: t.SumSq - other.SumSq}
}

// Merge returns the combination of t and other.
func (t TargetStats) Merge(other TargetStats) TargetStats {
	return TargetStats{N: t.N + other.N, Sum: t.Sum + other.Sum, SumSq: t.SumSq + other.SumSq}
}

// Std returns the population standard deviation implied by the statistics.
func (t TargetStats) Std() float64 {
	if t.N <= 1 {
		return 0
	}
	v := t.SumSq/t.N - (t.Sum/t.N)*(t.Sum/t.N)
	if v <= 0 {
		return 0
	}
	return math.Sqrt(v)
}

// SDR returns the standard deviation reduction of splitting parent into
// left and right — the FIMT-DD split merit (Section II-B).
func SDR(parent, left, right TargetStats) float64 {
	if parent.N <= 0 {
		return 0
	}
	return parent.Std() -
		left.N/parent.N*left.Std() -
		right.N/parent.N*right.Std()
}
