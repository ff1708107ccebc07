package core

import (
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"repro/internal/glm"
	"repro/internal/model"
	"repro/internal/rng"
	"repro/internal/stream"
)

// The gob document types of the DMT checkpoint payload (the payload
// inside the persist envelope). The document carries the counted RNG
// state, making save → load → continue byte-identical to never having
// stopped.
type treeDoc struct {
	Version  int
	Config   Config
	Schema   stream.Schema
	Step     int
	Splits   int
	Replaces int
	Prunes   int
	Changes  []ChangeEvent
	Root     *nodeDoc
	RNG      rng.State
}

type nodeDoc struct {
	Weights    []float64
	Loss       float64
	Grad       []float64
	N          float64
	Candidates []candDoc
	Feature    int
	Threshold  float64
	// Kind and Mask discriminate the split test (threshold, equality or
	// level subset). Pre-categorical documents carry neither; gob decodes
	// them as zero values, i.e. the numeric threshold kind — old
	// checkpoints load unchanged.
	Kind  uint8
	Mask  uint64
	Depth int
	Left  *nodeDoc
	Right *nodeDoc
}

type candDoc struct {
	Feature int
	Value   float64
	Loss    float64
	Grad    []float64
	N       float64
}

const treeDocVersion = 2

// doc assembles the serialisable document of the current tree state.
func (t *Tree) doc() treeDoc {
	return treeDoc{
		Version:  treeDocVersion,
		Config:   t.cfg,
		Schema:   t.schema,
		Step:     t.step,
		Splits:   t.splits,
		Replaces: t.replaces,
		Prunes:   t.prunes,
		Changes:  t.Changes(),
		Root:     encodeNode(t.root),
		RNG:      t.rngSrc.State(),
	}
}

// SaveState implements model.Checkpointer: the full tree state
// (structure, simple-model weights, loss/gradient accumulators,
// candidate statistics, change log, RNG position) as the checkpoint
// payload. Use repro.Save / persist.Save for the enveloped form; the
// registered "DMT" loader reads it back.
func (t *Tree) SaveState(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(t.doc()); err != nil {
		return fmt.Errorf("core: save DMT: %w", err)
	}
	return nil
}

// loadPayload decodes a tree document and rebuilds the tree.
// wantSchema, when non-nil, must match the document's schema — the
// envelope loader passes the header schema through so a tampered
// envelope cannot smuggle a mismatched payload.
func loadPayload(r io.Reader, wantSchema *stream.Schema) (*Tree, error) {
	var doc treeDoc
	if err := gob.NewDecoder(r).Decode(&doc); err != nil {
		return nil, fmt.Errorf("core: load DMT: %w", err)
	}
	if doc.Version != treeDocVersion {
		return nil, fmt.Errorf("core: load DMT: unsupported document version %d (this build reads %d)",
			doc.Version, treeDocVersion)
	}
	if err := doc.Schema.Validate(); err != nil {
		return nil, fmt.Errorf("core: load DMT: %w", err)
	}
	if wantSchema != nil && (doc.Schema.NumFeatures != wantSchema.NumFeatures || doc.Schema.NumClasses != wantSchema.NumClasses) {
		return nil, fmt.Errorf("core: load DMT: payload schema (%d features, %d classes) does not match envelope (%d features, %d classes)",
			doc.Schema.NumFeatures, doc.Schema.NumClasses, wantSchema.NumFeatures, wantSchema.NumClasses)
	}
	if wantSchema != nil && !doc.Schema.SameKinds(*wantSchema) {
		return nil, fmt.Errorf("core: load DMT: payload schema feature kinds do not match envelope")
	}
	if doc.Root == nil {
		return nil, fmt.Errorf("core: load DMT: document has no root")
	}
	t := &Tree{
		cfg:      doc.Config.withDefaults(),
		schema:   doc.Schema,
		step:     doc.Step,
		splits:   doc.Splits,
		replaces: doc.Replaces,
		prunes:   doc.Prunes,
		changes:  doc.Changes,
	}
	t.rng, t.rngSrc = rng.Restore(doc.RNG)
	root, err := t.decodeNode(doc.Root)
	if err != nil {
		return nil, err
	}
	t.root = root
	t.scratch = newScratch(t.root.mod.NumWeights(), maxSlots(&t.cfg, t.schema))
	t.k = float64(t.root.mod.FreeParams())
	return t, nil
}

func encodeNode(n *node) *nodeDoc {
	if n == nil {
		return nil
	}
	doc := &nodeDoc{
		Weights:   n.mod.Weights(),
		Loss:      n.loss,
		Grad:      append([]float64(nil), n.grad...),
		N:         n.n,
		Feature:   n.feature,
		Threshold: n.threshold,
		Kind:      uint8(n.kind),
		Mask:      n.mask,
		Depth:     n.depth,
		Left:      encodeNode(n.left),
		Right:     encodeNode(n.right),
	}
	// Candidates are emitted in index order (feature ascending, threshold
	// descending); the document format predates the index, so pre-index
	// checkpoints load into the index and vice versa.
	ix := n.idx
	for j := 0; j < ix.m; j++ {
		lo, hi := ix.featRange(j)
		for pos := lo; pos < hi; pos++ {
			e := ix.entries[pos]
			doc.Candidates = append(doc.Candidates, candDoc{
				Feature: j, Value: e.value,
				Loss: ix.loss[e.slot], Grad: append([]float64(nil), ix.gradOf(e.slot)...), N: ix.n[e.slot],
			})
		}
	}
	return doc
}

func (t *Tree) decodeNode(doc *nodeDoc) (*node, error) {
	mod := glm.New(t.schema.NumFeatures, t.schema.NumClasses, nil)
	if len(doc.Weights) != mod.NumWeights() {
		return nil, fmt.Errorf("core: load DMT: node weight length %d, schema wants %d",
			len(doc.Weights), mod.NumWeights())
	}
	mod.SetWeights(doc.Weights)
	if len(doc.Grad) != mod.NumWeights() {
		return nil, fmt.Errorf("core: load DMT: node gradient length %d, schema wants %d",
			len(doc.Grad), mod.NumWeights())
	}
	if !model.SplitKind(doc.Kind).Valid() {
		return nil, fmt.Errorf("core: load DMT: node has unknown split kind %d", doc.Kind)
	}
	m := t.schema.NumFeatures
	n := &node{
		mod:       mod,
		loss:      doc.Loss,
		grad:      append([]float64(nil), doc.Grad...),
		n:         doc.N,
		feature:   doc.Feature,
		threshold: doc.Threshold,
		kind:      model.SplitKind(doc.Kind),
		mask:      doc.Mask,
		depth:     doc.Depth,
		idx:       newCandIndex(m, mod.NumWeights(), maxSlots(&t.cfg, t.schema)),
	}
	for _, c := range doc.Candidates {
		if len(c.Grad) != mod.NumWeights() {
			return nil, fmt.Errorf("core: load DMT: candidate gradient length %d", len(c.Grad))
		}
		if c.Feature < 0 || c.Feature >= m {
			return nil, fmt.Errorf("core: load DMT: candidate feature %d out of range [0,%d)", c.Feature, m)
		}
		if math.IsNaN(c.Value) || math.IsInf(c.Value, 0) {
			return nil, fmt.Errorf("core: load DMT: non-finite candidate threshold")
		}
		if card := t.schema.Cardinality(c.Feature); card > 0 {
			if c.Value != math.Trunc(c.Value) || c.Value < 0 || c.Value >= float64(card) {
				return nil, fmt.Errorf("core: load DMT: candidate level code %g out of range for feature %d (cardinality %d)",
					c.Value, c.Feature, card)
			}
		}
		slot, ok := n.idx.insert(c.Feature, c.Value)
		if !ok {
			if _, dup := n.idx.find(c.Feature, c.Value); dup {
				continue // duplicate candidates collapse, as they always did
			}
			return nil, fmt.Errorf("core: load DMT: candidate pool exceeds arena (%d slots)", maxSlots(&t.cfg, t.schema))
		}
		n.idx.loss[slot] = c.Loss
		n.idx.n[slot] = c.N
		copy(n.idx.gradOf(slot), c.Grad)
	}
	if (doc.Left == nil) != (doc.Right == nil) {
		return nil, fmt.Errorf("core: load DMT: non-binary node in document")
	}
	if doc.Left != nil {
		left, err := t.decodeNode(doc.Left)
		if err != nil {
			return nil, err
		}
		right, err := t.decodeNode(doc.Right)
		if err != nil {
			return nil, err
		}
		n.left, n.right = left, right
	}
	return n, nil
}
