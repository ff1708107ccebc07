package core

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/stream"
)

// benchDepths is the depth sweep of the publish-cost benchmarks: a
// balanced tree of depth d has 2^(d+1)-1 nodes, so O(tree) publish cost
// doubles per step while O(changed path) publish cost grows by one node.
var benchDepths = []int{4, 6, 8, 10, 12}

// benchSchema keeps the per-node simple models small so the deepest
// sweep point (8191 nodes at depth 12) stays cheap to build.
var benchSchema = stream.Schema{NumFeatures: 4, NumClasses: 2, Name: "cowbench"}

// balancedTree builds a DMT whose structure is a perfect binary tree of
// the given depth, every split on feature 0 at 0.5. MaxDepth pins the
// leaves and DisablePruning pins the inner nodes, so the structure — and
// with it StructureVersion — stays fixed under further learning: each
// benchmark iteration is a pure "one local change" workload.
func balancedTree(depth int) *Tree {
	t := New(Config{MaxDepth: depth, DisablePruning: true, Seed: 1}, benchSchema)
	var grow func(n *node)
	grow = func(n *node) {
		if n.depth >= depth {
			return
		}
		n.feature, n.threshold = 0, 0.5
		n.left = t.newNode(n.depth+1, n.mod)
		n.right = t.newNode(n.depth+1, n.mod)
		grow(n.left)
		grow(n.right)
	}
	grow(t.root)
	return t
}

// benchRow routes to the leftmost leaf at every level (x[0] = 0.25).
func benchRow() stream.Batch {
	x := make([]float64, benchSchema.NumFeatures)
	x[0] = 0.25
	return stream.Batch{X: [][]float64{x}, Y: []int{1}}
}

var sinkSnapshot model.Snapshot

// BenchmarkPublishLocalChangeOp measures the serving-publish hot loop:
// one single-row Learn (touching exactly one root-to-leaf path) followed
// by Snapshot. Before copy-on-write this re-clones the whole tree every
// iteration (cost doubles with each depth step); with COW structural
// sharing only the learn-visited path re-freezes, so ns/op stays roughly
// flat across the sweep.
func BenchmarkPublishLocalChangeOp(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			t := balancedTree(d)
			one := benchRow()
			t.Learn(one)
			sinkSnapshot = t.Snapshot() // warm any snapshot cache
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				t.Learn(one)
				sinkSnapshot = t.Snapshot()
			}
		})
	}
}

// BenchmarkSnapshotOnlyOp isolates the Snapshot half of the publish
// loop: repeated captures of an unchanged tree. Pre-COW this still pays
// the full O(tree) clone; post-COW it is a cache hit regardless of
// depth.
func BenchmarkSnapshotOnlyOp(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			t := balancedTree(d)
			t.Learn(benchRow())
			sinkSnapshot = t.Snapshot()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkSnapshot = t.Snapshot()
			}
		})
	}
}

// BenchmarkCheckpointBytesOp measures full-envelope checkpoint cost per
// depth and reports the envelope size as a custom ckpt-bytes metric.
// The delta-checkpoint benchmarks report delta-bytes next to this for
// the full-vs-delta state-transfer comparison.
func BenchmarkCheckpointBytesOp(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			t := balancedTree(d)
			t.Learn(benchRow())
			var buf bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				if err := persist.Save(&buf, t); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(buf.Len()), "ckpt-bytes")
		})
	}
}

// BenchmarkDeltaBytesOp measures the delta side of the state-transfer
// comparison: checkpoint the tree, apply one single-path Learn, diff the
// two envelopes with persist.MakeDelta, and report the delta envelope's
// wire size as delta-bytes. Where ckpt-bytes doubles per depth step,
// delta-bytes tracks only the changed root-to-leaf path, so the gap
// between the two metrics is the bandwidth a ?since= follower saves.
func BenchmarkDeltaBytesOp(b *testing.B) {
	for _, d := range benchDepths {
		b.Run(fmt.Sprintf("depth=%d", d), func(b *testing.B) {
			t := balancedTree(d)
			one := benchRow()
			t.Learn(one)
			var base bytes.Buffer
			if err := persist.Save(&base, t); err != nil {
				b.Fatal(err)
			}
			t.Learn(one)
			var next bytes.Buffer
			if err := persist.Save(&next, t); err != nil {
				b.Fatal(err)
			}
			var wire bytes.Buffer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delta, err := persist.MakeDelta(base.Bytes(), next.Bytes())
				if err != nil {
					b.Fatal(err)
				}
				wire.Reset()
				if err := persist.WriteDelta(&wire, delta); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(wire.Len()), "delta-bytes")
		})
	}
}
