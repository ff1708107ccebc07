// Package model defines the classifier contract shared by every learner
// in the repository and the complexity accounting of the paper's
// evaluation (Section VI-D2).
package model

import "repro/internal/stream"

// Classifier is a batch-incremental online classifier. The prequential
// evaluator calls Predict on every row of a batch first (test) and then
// Learn on the same batch (train).
//
// Batch rows are read-only. Learn, Predict, PredictBatch and Proba read
// the rows they are given during the call, and never write them or read
// them after it returns: a batch drawn from an in-memory stream is a view
// of the stream's own rows, which later passes, replays and other
// learners read again.
type Classifier interface {
	// Learn updates the model with a labelled batch.
	Learn(b stream.Batch)
	// Predict returns the predicted class for one instance.
	Predict(x []float64) int
	// Complexity reports the current size of the model using the paper's
	// counting rules.
	Complexity() Complexity
	// Name identifies the model in reports (e.g. "DMT", "VFDT (MC)").
	Name() string
}

// ProbabilisticClassifier is implemented by models that expose class
// probabilities.
type ProbabilisticClassifier interface {
	Classifier
	// Proba writes class probabilities for x into out (length c) and
	// returns it; nil out allocates.
	Proba(x []float64, out []float64) []float64
}

// LeafKind describes what a tree keeps in its leaves, which determines the
// paper's split/parameter counting.
type LeafKind int

const (
	// LeafMajority is a majority-class leaf: 0 extra splits, 1 parameter.
	LeafMajority LeafKind = iota
	// LeafModel is a predictive leaf (linear or Naive Bayes): 1 extra
	// split for binary targets, c for multiclass; m parameters for binary,
	// (c-1)*m for multiclass.
	LeafModel
)

// Complexity is the interpretability accounting of Section VI-D2.
type Complexity struct {
	// Splits is the paper's "No. of Splits": one per inner node, plus per
	// leaf 0 (majority), 1 (binary model leaf) or c (multiclass model
	// leaf).
	Splits float64
	// Params is the paper's "No. of Parameters": one per inner node (the
	// split value), plus per leaf 1 (majority), m (binary model leaf) or
	// (c-1)*m (multiclass model leaf).
	Params float64
	// Inner and Leaves are the raw node counts; Depth is the tree height
	// (a single leaf has depth 0). Ensembles report sums over members and
	// the maximum depth.
	Inner  int
	Leaves int
	Depth  int
}

// TreeComplexity computes the paper's counting for a tree with the given
// node counts and leaf kind over a stream with m features and c classes.
func TreeComplexity(inner, leaves, depth int, kind LeafKind, m, c int) Complexity {
	comp := Complexity{Inner: inner, Leaves: leaves, Depth: depth}
	leafSplits, leafParams := 0.0, 1.0
	if kind == LeafModel {
		if c <= 2 {
			leafSplits, leafParams = 1, float64(m)
		} else {
			leafSplits, leafParams = float64(c), float64((c-1)*m)
		}
	}
	comp.Splits = float64(inner) + float64(leaves)*leafSplits
	comp.Params = float64(inner) + float64(leaves)*leafParams
	return comp
}

// Add combines two complexity reports (for ensembles): counts and split /
// parameter totals add, depth takes the maximum.
func (c Complexity) Add(other Complexity) Complexity {
	out := Complexity{
		Splits: c.Splits + other.Splits,
		Params: c.Params + other.Params,
		Inner:  c.Inner + other.Inner,
		Leaves: c.Leaves + other.Leaves,
		Depth:  c.Depth,
	}
	if other.Depth > out.Depth {
		out.Depth = other.Depth
	}
	return out
}
