// Package attrobs implements the per-feature attribute observers that the
// Hoeffding-style trees use to propose and score candidate split points:
// per-class Gaussian estimators for classification (the MOA approach) and
// extended binary search trees (E-BST) for FIMT-DD's regression targets.
package attrobs

import (
	"math"

	"repro/internal/model"
	"repro/internal/stats"
)

// CandidateSplit is a scored binary split proposal on one feature.
type CandidateSplit struct {
	Feature   int
	Threshold float64
	Merit     float64
	// Kind is the routing test of the proposal: the zero value is the
	// numeric threshold test; categorical observers propose equality
	// (Threshold holds the level code) or subset (Mask holds the level
	// bitset) splits.
	Kind model.SplitKind
	Mask uint64
	// Post holds the estimated class distributions of the two branches
	// (left: value <= threshold). Nil for regression observers.
	Post [][]float64
}

// SameTest reports whether two proposals route identically.
func (c CandidateSplit) SameTest(o CandidateSplit) bool {
	return c.Feature == o.Feature && c.Kind == o.Kind && c.Threshold == o.Threshold && c.Mask == o.Mask
}

// Gaussian observes one numeric feature with one Gaussian estimator per
// class, following the classic VFDT numeric handling: candidate thresholds
// are taken on an even grid between the observed minimum and maximum, and
// branch class distributions are estimated from the per-class CDFs.
type Gaussian struct {
	perClass []stats.Gaussian
	min, max float64
	seen     bool
	bins     int
}

// NewGaussian returns an observer over numClasses classes proposing at
// most bins candidate thresholds (10 is the customary default).
func NewGaussian(numClasses, bins int) *Gaussian {
	if bins < 1 {
		bins = 10
	}
	return &Gaussian{perClass: make([]stats.Gaussian, numClasses), bins: bins}
}

// Clone returns an independent deep copy (stats.Gaussian is a value
// type, so copying the per-class slice copies the estimators).
func (g *Gaussian) Clone() *Gaussian {
	c := *g
	c.perClass = append([]stats.Gaussian(nil), g.perClass...)
	return &c
}

// Observe records a feature value for a class with the given weight.
// Non-finite values are ignored.
func (g *Gaussian) Observe(value float64, class int, weight float64) {
	if class < 0 || class >= len(g.perClass) || math.IsNaN(value) || math.IsInf(value, 0) {
		return
	}
	if !g.seen {
		g.min, g.max, g.seen = value, value, true
	} else {
		if value < g.min {
			g.min = value
		}
		if value > g.max {
			g.max = value
		}
	}
	g.perClass[class].AddWeighted(value, weight)
}

// ClassWeight returns the observed weight of a class.
func (g *Gaussian) ClassWeight(class int) float64 {
	if class < 0 || class >= len(g.perClass) {
		return 0
	}
	return g.perClass[class].Weight()
}

// Pdf returns the per-class density at value (Naive Bayes likelihood).
func (g *Gaussian) Pdf(value float64, class int) float64 {
	if class < 0 || class >= len(g.perClass) || g.perClass[class].Weight() == 0 {
		return 1 // uninformative
	}
	return g.perClass[class].Pdf(value)
}

// DistributionsAt estimates the class-count vectors of the two branches of
// a threshold split using the Gaussian CDFs. The trees call it when a
// split is actually installed (a rare structural event, so the two
// allocations are acceptable); the scan hot path uses DistributionsAtInto.
func (g *Gaussian) DistributionsAt(threshold float64) (left, right []float64) {
	c := len(g.perClass)
	left = make([]float64, c)
	right = make([]float64, c)
	g.DistributionsAtInto(threshold, left, right)
	return left, right
}

// DistributionsAtInto estimates the branch class-count vectors of a
// threshold split into caller-owned buffers of length >= the class count.
func (g *Gaussian) DistributionsAtInto(threshold float64, left, right []float64) {
	for k := range g.perClass {
		w := g.perClass[k].Weight()
		if w == 0 {
			left[k], right[k] = 0, 0
			continue
		}
		l := g.perClass[k].WeightLessThan(threshold)
		left[k] = l
		right[k] = w - l
	}
}

// Meriter scores a candidate binary split from the pre-split class counts
// and the two branch distributions; a scan hoists the pre-split part out
// of its loop with PreImpurity and scores each candidate with MeritFrom,
// which must return Merit's exact bits. split.Criterion satisfies it; the
// interface is redeclared here so attrobs stays independent of the split
// package.
type Meriter interface {
	Merit(pre []float64, post [][]float64) float64
	PreImpurity(pre []float64) (total, impurity float64)
	MeritFrom(total, impurity float64, post [][]float64) float64
}

// ScanBuf holds the reusable branch-distribution buffers of a threshold
// scan, so MeritAt and BestThreshold run without allocating. Scans never
// nest, so one ScanBuf serves a whole tree; it must not be shared across
// goroutines (each ensemble member owns its own). The categorical
// observers lazily grow two extra level-order buffers for their subset
// scans; after the first scan of the widest feature those scans allocate
// nothing either.
type ScanBuf struct {
	left, right []float64
	post        [][]float64
	// ord and score order seen levels for the subset prefix scan
	// (Categorical.BestSplit); grown on demand, reused forever after.
	ord   []int
	score []float64
}

// ReserveLevels pre-grows the level-order buffers to card levels so the
// first categorical subset scan does not allocate either; tree scratches
// call it at construction with the schema's widest cardinality.
func (b *ScanBuf) ReserveLevels(card int) { b.levelBufs(card) }

// levelBufs returns the level-order buffers with capacity for card
// levels, growing them on first use.
func (b *ScanBuf) levelBufs(card int) ([]int, []float64) {
	if cap(b.ord) < card {
		b.ord = make([]int, card)
		b.score = make([]float64, card)
	}
	return b.ord[:card], b.score[:card]
}

// NewScanBuf returns a scan workspace over numClasses classes.
func NewScanBuf(numClasses int) *ScanBuf {
	b := &ScanBuf{left: make([]float64, numClasses), right: make([]float64, numClasses)}
	b.post = [][]float64{b.left, b.right}
	return b
}

// MeritAt scores the threshold split of this feature with crit against
// the pre-split counts, using buf's buffers. It allocates nothing.
func (g *Gaussian) MeritAt(threshold float64, pre []float64, crit Meriter, buf *ScanBuf) float64 {
	g.DistributionsAtInto(threshold, buf.left, buf.right)
	return crit.Merit(pre, buf.post)
}

// BestThreshold scans the candidate grid for the highest-merit threshold.
// Unlike BestSplit it materialises no branch distributions — callers
// fetch them with DistributionsAt once a split is actually installed —
// so the scan allocates nothing.
func (g *Gaussian) BestThreshold(pre []float64, crit Meriter, buf *ScanBuf) (threshold, merit float64, ok bool) {
	if !g.seen || g.max <= g.min {
		return 0, 0, false
	}
	merit = math.Inf(-1)
	total, impurity := crit.PreImpurity(pre)
	step := (g.max - g.min) / float64(g.bins+1)
	for i := 1; i <= g.bins; i++ {
		t := g.min + step*float64(i)
		g.DistributionsAtInto(t, buf.left, buf.right)
		if m := crit.MeritFrom(total, impurity, buf.post); m > merit {
			threshold, merit = t, m
		}
	}
	if math.IsInf(merit, -1) {
		return 0, 0, false
	}
	return threshold, merit, true
}

// BestSplit returns the highest-merit candidate threshold for this
// feature, or ok=false when the observer has no usable spread.
func (g *Gaussian) BestSplit(feature int, merit func(post [][]float64) float64) (CandidateSplit, bool) {
	if !g.seen || g.max <= g.min {
		return CandidateSplit{}, false
	}
	best := CandidateSplit{Feature: feature, Merit: math.Inf(-1)}
	step := (g.max - g.min) / float64(g.bins+1)
	for i := 1; i <= g.bins; i++ {
		t := g.min + step*float64(i)
		l, r := g.DistributionsAt(t)
		post := [][]float64{l, r}
		m := merit(post)
		if m > best.Merit {
			best = CandidateSplit{Feature: feature, Threshold: t, Merit: m, Post: post}
		}
	}
	if math.IsInf(best.Merit, -1) {
		return CandidateSplit{}, false
	}
	return best, true
}
