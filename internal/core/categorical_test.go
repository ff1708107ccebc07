package core

import (
	"bytes"
	"encoding/gob"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/rng"
	"repro/internal/stream"
	"repro/internal/synth"
)

// plantedBatches materialises the planted categorical-concept stream
// into batches.
func plantedBatches(t *testing.T, n, size int, seed int64) (stream.Schema, []stream.Batch) {
	t.Helper()
	gen := synth.NewCategoricalConcept(n*size+size, 8, 0.02, seed)
	var out []stream.Batch
	for i := 0; i < n; i++ {
		var b stream.Batch
		for j := 0; j < size; j++ {
			inst, err := gen.Next()
			if err != nil {
				t.Fatalf("stream ended early: %v", err)
			}
			b.X = append(b.X, inst.X)
			b.Y = append(b.Y, inst.Y)
		}
		out = append(out, b)
	}
	return gen.Schema(), out
}

// On the planted stream — the label depends only on the categorical
// attribute and the level codes alternate between the classes — the DMT
// must split natively on the categorical feature: every installed split
// is an equality or subset test on feature 2, never a threshold on the
// raw code.
func TestDMTPicksCategoricalSplit(t *testing.T) {
	schema, batches := plantedBatches(t, 60, 64, 21)
	tr := New(Config{Seed: 3}, schema)
	for _, b := range batches {
		tr.Learn(b)
	}
	if tr.root.isLeaf() {
		t.Fatal("tree never split on the planted categorical concept")
	}
	var walk func(n *node)
	categorical := 0
	walk = func(n *node) {
		if n == nil || n.isLeaf() {
			return
		}
		if n.feature != 2 {
			t.Fatalf("split on feature %d, want the categorical feature 2", n.feature)
		}
		if n.kind != model.SplitEquality && n.kind != model.SplitSubset {
			t.Fatalf("split kind %v on the categorical feature, want equality or subset", n.kind)
		}
		categorical++
		walk(n.left)
		walk(n.right)
	}
	walk(tr.root)
	if categorical == 0 {
		t.Fatal("no categorical split installed")
	}
	if desc := tr.Describe(); !strings.Contains(desc, "==") && !strings.Contains(desc, " in {") {
		t.Fatalf("Describe does not render the categorical test:\n%s", desc)
	}
}

// Unseen level codes route deterministically: predictions for a level
// the tree never observed are stable across calls and identical to any
// other unseen level's routing (both fall to the right branch).
func TestDMTUnseenLevelDeterministic(t *testing.T) {
	schema, batches := plantedBatches(t, 60, 64, 22)
	// Widen the declared cardinality so codes 8..15 exist but are never
	// observed in the data.
	schema.Kinds[2] = stream.Categorical(16)
	tr := New(Config{Seed: 3}, schema)
	for _, b := range batches {
		tr.Learn(b)
	}
	x := []float64{0.5, 0.5, 14}
	first := tr.Predict(x)
	for i := 0; i < 5; i++ {
		if got := tr.Predict(x); got != first {
			t.Fatal("unseen-level prediction is unstable")
		}
	}
	x2 := []float64{0.5, 0.5, 9}
	if tr.Predict(x2) != first {
		t.Fatal("two unseen levels routed differently")
	}
}

// Save → load → continue on a categorical schema stays byte-identical.
func TestDMTCategoricalCheckpointContinue(t *testing.T) {
	schema, batches := plantedBatches(t, 40, 64, 23)
	control := New(Config{Seed: 5}, schema)
	subject := New(Config{Seed: 5}, schema)
	half := len(batches) / 2
	for i := 0; i < half; i++ {
		control.Learn(batches[i])
		subject.Learn(batches[i])
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, subject); err != nil {
		t.Fatal(err)
	}
	restored := loadTree(t, &buf)
	for i := half; i < len(batches); i++ {
		control.Learn(batches[i])
		restored.Learn(batches[i])
	}
	for _, b := range batches {
		for _, x := range b.X {
			if control.Predict(x) != restored.Predict(x) {
				t.Fatal("prediction diverged after categorical checkpoint resume")
			}
		}
	}
	if control.Describe() != restored.Describe() {
		t.Fatal("structure diverged after categorical checkpoint resume")
	}
}

// legacyNodeDoc and legacyTreeDoc mirror the pre-categorical document
// structs: no Kind, no Mask. Gob matches fields by name, so decoding a
// document written by an old binary must yield threshold-kind nodes.
type legacyNodeDoc struct {
	Weights    []float64
	Loss       float64
	Grad       []float64
	N          float64
	Candidates []legacyCandDoc
	Feature    int
	Threshold  float64
	Depth      int
	Left       *legacyNodeDoc
	Right      *legacyNodeDoc
}

type legacyCandDoc struct {
	Feature int
	Value   float64
	Loss    float64
	Grad    []float64
	N       float64
}

type legacyTreeDoc struct {
	Version  int
	Config   Config
	Schema   stream.Schema
	Step     int
	Splits   int
	Replaces int
	Prunes   int
	Changes  []ChangeEvent
	Root     *legacyNodeDoc
	RNG      rng.State
}

// A checkpoint written before feature kinds existed — numeric-only
// schema, no Kind/Mask fields anywhere — still loads, with every node
// decoding as a threshold split.
func TestLegacyNumericDocumentLoads(t *testing.T) {
	schema := stream.Schema{NumFeatures: 2, NumClasses: 2, Name: "legacy"}
	w := make([]float64, 3) // glm weights for 2 features, 2 classes
	g := make([]float64, 3)
	doc := legacyTreeDoc{
		Version: treeDocVersion,
		Config:  Config{Seed: 1},
		Schema:  schema,
		Step:    4,
		RNG:     New(Config{Seed: 1}, schema).rngSrc.State(),
		Root: &legacyNodeDoc{
			Weights: w, Grad: g, N: 10, Feature: 1, Threshold: 0.5,
			Left:  &legacyNodeDoc{Weights: w, Grad: g, N: 5},
			Right: &legacyNodeDoc{Weights: w, Grad: g, N: 5},
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	tr, err := loadPayload(&buf, nil)
	if err != nil {
		t.Fatalf("legacy document failed to load: %v", err)
	}
	if tr.root.kind != model.SplitThreshold || tr.root.mask != 0 {
		t.Fatalf("legacy node decoded as kind %v mask %x, want threshold", tr.root.kind, tr.root.mask)
	}
	// And it keeps learning.
	tr.Learn(stream.Batch{X: [][]float64{{0.1, 0.2}, {0.8, 0.9}}, Y: []int{0, 1}})
}

// Candidate level codes outside the declared cardinality are rejected at
// load time.
func TestLoadRejectsBadLevelCode(t *testing.T) {
	schema := stream.Schema{
		NumFeatures: 2, NumClasses: 2, Name: "badcode",
		Kinds: []stream.FeatureKind{stream.Numeric(), stream.Categorical(4)},
	}
	tr := New(Config{Seed: 1}, schema)
	tr.Learn(stream.Batch{X: [][]float64{{0.1, 2}, {0.8, 3}}, Y: []int{0, 1}})
	doc := tr.doc()
	doc.Root.Candidates = append(doc.Root.Candidates, candDoc{
		Feature: 1, Value: 9, Grad: make([]float64, tr.root.mod.NumWeights()),
	})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	if _, err := loadPayload(&buf, nil); err == nil {
		t.Fatal("out-of-range candidate level code was accepted")
	}
}
