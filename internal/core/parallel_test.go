package core

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stream"
)

// withScanGate runs fn with the scan gate forced: minWork 0 sends every
// scan to the pool in parts ranges, math.MaxInt keeps every scan inline.
func withScanGate(minWork, parts int, fn func()) {
	saved := scanGate
	scanGate.minWork, scanGate.parts = minWork, parts
	defer func() { scanGate = saved }()
	fn()
}

// churnBatch draws a batch of a concept that changes with phase: an
// XOR-style rule on (x0, x1) first, which needs a split; then a linear
// rule, which makes the subtree redundant (prune); then the XOR rule on
// (x2, x3), which favours a different split (replace). Categorical
// features hold level codes in [0, card); numeric ones are uniform.
func churnBatch(rng *rand.Rand, schema stream.Schema, rows, phase int) stream.Batch {
	m, c := schema.NumFeatures, schema.NumClasses
	var b stream.Batch
	for i := 0; i < rows; i++ {
		x := make([]float64, m)
		for j := range x {
			if card := schema.Cardinality(j); card > 0 {
				x[j] = float64(rng.Intn(card))
			} else {
				x[j] = rng.Float64()
			}
		}
		u := func(j int) float64 {
			if card := schema.Cardinality(j); card > 0 {
				return (x[j] + 0.5) / float64(card)
			}
			return x[j]
		}
		var y int
		switch phase % 3 {
		case 0:
			if (u(0) <= 0.5) == (u(1) <= 0.5) {
				y = 1
			}
		case 1:
			if 2*u(1)+u(2) > 1.5 {
				y = 1
			}
		default:
			if (u(2) <= 0.5) == (u(3) <= 0.5) {
				y = 1
			}
		}
		if c > 2 {
			y = (2*y + int(u(4)*2)) % c
		}
		if rng.Float64() < 0.05 {
			y = rng.Intn(c)
		}
		b.X = append(b.X, x)
		b.Y = append(b.Y, y)
	}
	return b
}

// churnTree returns a tree whose AIC parameter credit is small, so a
// short stream splits, replaces and prunes: the identity tests below need
// every structural path, and the credit of a 774-weight model would take
// a full-size stream to overcome.
func churnTree(schema stream.Schema, k float64, depth int) *Tree {
	tree := New(Config{Seed: 9, Epsilon: 0.99, RestructureGrace: 40, MaxDepth: depth, ReplacementRate: 0.3}, schema)
	tree.k = k
	return tree
}

func checkpointBytes(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := tree.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestPoolScanMatchesInline forces the candidate scan onto the pool, in
// three feature ranges whatever the pool size, and inline on the same
// stream, and requires identical predictions after every batch and
// identical checkpoint bytes at the end, for a Gas-shaped schema (m =
// 128, 6 classes), a Hyperplane-shaped one (m = 50, binary) and a
// categorical-heavy one.
func TestPoolScanMatchesInline(t *testing.T) {
	catKinds := make([]stream.FeatureKind, 12)
	for j := range catKinds {
		if j%4 != 3 {
			catKinds[j] = stream.FeatureKind{Categorical: true, Cardinality: 3 + j}
		}
	}
	for _, tc := range []struct {
		name    string
		schema  stream.Schema
		k       float64
		depth   int
		rows    int
		batches int
	}{
		{"gas-shaped", stream.Schema{NumFeatures: 128, NumClasses: 6, Name: "gas"}, 10, 2, 13, 120},
		{"hyperplane-shaped", stream.Schema{NumFeatures: 50, NumClasses: 2, Name: "hyp"}, 2, 3, 100, 150},
		{"categorical", stream.Schema{NumFeatures: 12, NumClasses: 3, Name: "cat", Kinds: catKinds}, 10, 3, 40, 240},
	} {
		t.Run(tc.name, func(t *testing.T) {
			batches := tc.batches
			if testing.Short() {
				batches /= 2
			}
			pooled, inline := churnTree(tc.schema, tc.k, tc.depth), churnTree(tc.schema, tc.k, tc.depth)
			rng := rand.New(rand.NewSource(5))
			for i := 0; i < batches; i++ {
				b := churnBatch(rng, tc.schema, tc.rows, 3*i/batches)
				withScanGate(0, 3, func() { pooled.Learn(b) })
				withScanGate(math.MaxInt, 0, func() { inline.Learn(b) })
				for r, x := range b.X {
					if p, q := pooled.Predict(x), inline.Predict(x); p != q {
						t.Fatalf("batch %d row %d: pooled predicts %d, inline %d", i, r, p, q)
					}
				}
			}
			if !bytes.Equal(checkpointBytes(t, pooled), checkpointBytes(t, inline)) {
				t.Fatal("pooled and inline checkpoints differ")
			}
			s, r, p := inline.Revisions()
			t.Logf("splits %d, replaces %d, prunes %d", s, r, p)
			if s == 0 || r == 0 || p == 0 {
				t.Fatalf("precondition: want splits, replaces and prunes, got %d/%d/%d", s, r, p)
			}
		})
	}
}

// checkNormsFresh asserts the norms-cache contract on every node: a
// cache marked current matches a recompute bit for bit, and the split
// search returns the same choice from the cache as from a forced
// recompute.
func checkNormsFresh(t *testing.T, tree *Tree, when string) {
	t.Helper()
	var walk func(n *node)
	walk = func(n *node) {
		ix := n.idx
		if ix.normsOK {
			for _, e := range ix.entries {
				g, d := linalg.Norm2Sq(ix.gradOf(e.slot)), linalg.Norm2SqDiff(n.grad, ix.gradOf(e.slot))
				if ix.normG[e.slot] != g || ix.normD[e.slot] != d {
					t.Fatalf("%s: slot %d caches norms (%v, %v), recompute gives (%v, %v)",
						when, e.slot, ix.normG[e.slot], ix.normD[e.slot], g, d)
				}
			}
		}
		cached, okC := tree.bestCandidate(n, n.loss, false)
		saved := ix.normsOK
		ix.normsOK = false
		fresh, okF := tree.bestCandidate(n, n.loss, false)
		ix.normsOK = saved
		if okC != okF || cached != fresh {
			t.Fatalf("%s: bestCandidate from the cache %+v/%v, from a recompute %+v/%v", when, cached, okC, fresh, okF)
		}
		if !n.isLeaf() {
			walk(n.left)
			walk(n.right)
		}
	}
	walk(tree.root)
}

// TestNormsCacheStaysFresh drives the events that can stale the cached
// gain norms — a restore, an all-non-finite batch, a prune — and checks
// the cache contract after each, and after every batch of a churning
// stream.
func TestNormsCacheStaysFresh(t *testing.T) {
	schema := stream.Schema{NumFeatures: 8, NumClasses: 2, Name: "norms"}
	tree := churnTree(schema, 2, 3)
	rng := rand.New(rand.NewSource(8))
	prunes := 0
	for i := 0; i < 600; i++ {
		tree.Learn(churnBatch(rng, schema, 50, 3*i/600))
		checkNormsFresh(t, tree, "after a batch")
		if _, _, p := tree.Revisions(); p > prunes {
			prunes = p
			checkNormsFresh(t, tree, "after a prune")
		}
		if i == 300 {
			nan := churnBatch(rng, schema, 20, 0)
			for _, x := range nan.X {
				x[i%8] = math.NaN()
			}
			tree.Learn(nan)
			checkNormsFresh(t, tree, "after an all-non-finite batch")

			restored, err := loadPayload(bytes.NewReader(checkpointBytes(t, tree)), nil)
			if err != nil {
				t.Fatal(err)
			}
			restored.k = tree.k
			checkNormsFresh(t, restored, "after a restore")
			if a, b := restored.DebugRoot(), tree.DebugRoot(); a != b {
				t.Fatalf("DebugRoot after restore %q, before %q", a, b)
			}
			tree = restored
		}
	}
	if prunes == 0 {
		t.Fatal("precondition: the stream never pruned")
	}
}
