package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"math/rand"
	"testing"

	"repro/internal/persist"
	"repro/internal/stream"
)

// Save -> Load must preserve predictions, complexity, accumulators and
// the change log exactly.
func TestSaveLoadRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	tree := New(Config{Seed: 31}, schema(3, 2))
	for i := 0; i < 400; i++ {
		tree.Learn(piecewiseBatch(rng, 100, 0.05))
	}
	if tree.Complexity().Inner == 0 {
		t.Fatal("precondition: tree should have grown")
	}

	var buf bytes.Buffer
	if err := persist.Save(&buf, tree); err != nil {
		t.Fatal(err)
	}
	loaded := loadTree(t, &buf)

	if loaded.Complexity() != tree.Complexity() {
		t.Fatalf("complexity changed: %+v vs %+v", loaded.Complexity(), tree.Complexity())
	}
	s1, r1, p1 := tree.Revisions()
	s2, r2, p2 := loaded.Revisions()
	if s1 != s2 || r1 != r2 || p1 != p2 {
		t.Fatal("revision counters changed")
	}
	if len(loaded.Changes()) != len(tree.Changes()) {
		t.Fatal("change log changed")
	}

	// Identical predictions on fresh data.
	test := piecewiseBatch(rng, 500, 0)
	for i, x := range test.X {
		if tree.Predict(x) != loaded.Predict(x) {
			t.Fatalf("prediction %d differs after round trip", i)
		}
		pa := tree.Proba(x, nil)
		pb := loaded.Proba(x, nil)
		for k := range pa {
			if pa[k] != pb[k] {
				t.Fatalf("probability %d/%d differs", i, k)
			}
		}
	}

	// The loaded tree must keep learning without degradation.
	for i := 0; i < 100; i++ {
		loaded.Learn(piecewiseBatch(rng, 100, 0.05))
	}
	if acc := accuracy(loaded, piecewiseBatch(rng, 1000, 0)); acc < 0.8 {
		t.Fatalf("loaded tree degraded: accuracy %v", acc)
	}
}

func TestSaveLoadMulticlass(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	tree := New(Config{Seed: 32}, schema(4, 5))
	for i := 0; i < 100; i++ {
		var b stream.Batch
		for j := 0; j < 50; j++ {
			x := []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
			b.X = append(b.X, x)
			b.Y = append(b.Y, int(x[0]*5)%5)
		}
		tree.Learn(b)
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, tree); err != nil {
		t.Fatal(err)
	}
	loaded := loadTree(t, &buf)
	x := []float64{0.3, 0.5, 0.7, 0.9}
	if tree.Predict(x) != loaded.Predict(x) {
		t.Fatal("multiclass prediction differs")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := loadPayload(bytes.NewReader([]byte("not a gob")), nil); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := loadPayload(bytes.NewReader(nil), nil); err == nil {
		t.Fatal("empty input accepted")
	}
}

func TestSaveLoadPreservesCandidates(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	tree := New(Config{Seed: 33}, schema(3, 2))
	for i := 0; i < 50; i++ {
		tree.Learn(piecewiseBatch(rng, 100, 0.05))
	}
	nCands := tree.root.idx.size()
	if nCands == 0 {
		t.Fatal("precondition: root should hold candidates")
	}
	var buf bytes.Buffer
	if err := persist.Save(&buf, tree); err != nil {
		t.Fatal(err)
	}
	loaded := loadTree(t, &buf)
	if loaded.root.idx.size() != nCands {
		t.Fatalf("candidates lost: %d vs %d", loaded.root.idx.size(), nCands)
	}
	if err := checkIndexInvariants(loaded.root.idx); err != nil {
		t.Fatalf("candidate index corrupt after load: %v", err)
	}
	// Every candidate's lifetime statistics — threshold, loss, count and
	// the full gradient vector — must round-trip bit-exactly.
	orig, restored := tree.root.idx, loaded.root.idx
	for pos, e := range orig.entries {
		feature := orig.featureOf(pos)
		rpos, ok := restored.find(feature, e.value)
		if !ok {
			t.Fatalf("candidate (x%d <= %v) lost in round trip", feature, e.value)
		}
		rslot := restored.entries[rpos].slot
		if restored.loss[rslot] != orig.loss[e.slot] || restored.n[rslot] != orig.n[e.slot] {
			t.Fatalf("candidate (x%d <= %v) stats changed: loss %v->%v n %v->%v",
				feature, e.value, orig.loss[e.slot], restored.loss[rslot], orig.n[e.slot], restored.n[rslot])
		}
		og, rg := orig.gradOf(e.slot), restored.gradOf(rslot)
		for k := range og {
			if og[k] != rg[k] {
				t.Fatalf("candidate (x%d <= %v) gradient[%d] changed: %v -> %v",
					feature, e.value, k, og[k], rg[k])
			}
		}
	}
}

// A candidate document that would overflow the arena or carry a
// non-finite threshold must be rejected, not silently truncated.
func TestLoadRejectsCorruptCandidates(t *testing.T) {
	tree := New(Config{Seed: 34}, schema(2, 2))
	rng := rand.New(rand.NewSource(34))
	for i := 0; i < 20; i++ {
		tree.Learn(piecewiseBatch(rng, 50, 0))
	}
	// Poison the bare payload document, which the envelope's loader
	// decodes.
	var buf bytes.Buffer
	if err := tree.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	doc := decodeDoc(t, buf.Bytes())
	doc.Root.Candidates = append(doc.Root.Candidates, candDoc{
		Feature: 99, Value: 0.5, Grad: make([]float64, tree.root.mod.NumWeights()),
	})
	if _, err := loadPayload(bytes.NewReader(encodeDoc(t, doc)), nil); err == nil {
		t.Fatal("out-of-range candidate feature accepted")
	}
	doc = decodeDoc(t, buf.Bytes())
	doc.Root.Candidates = append(doc.Root.Candidates, candDoc{
		Feature: 0, Value: math.NaN(), Grad: make([]float64, tree.root.mod.NumWeights()),
	})
	if _, err := loadPayload(bytes.NewReader(encodeDoc(t, doc)), nil); err == nil {
		t.Fatal("NaN candidate threshold accepted")
	}
}

// loadTree reads one checkpoint envelope and requires a DMT inside.
func loadTree(t *testing.T, r io.Reader) *Tree {
	t.Helper()
	c, err := persist.Load(r)
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := c.(*Tree)
	if !ok {
		t.Fatalf("checkpoint holds a %T, not a DMT", c)
	}
	return tree
}

func decodeDoc(t *testing.T, raw []byte) *treeDoc {
	t.Helper()
	var doc treeDoc
	if err := gob.NewDecoder(bytes.NewReader(raw)).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	return &doc
}

func encodeDoc(t *testing.T, doc *treeDoc) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(doc); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
