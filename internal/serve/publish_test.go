package serve

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/registry"
)

// TestPublishOnChangeCollapsesRate is the satellite's core claim: with
// publish-on-change, the publish count tracks structural events instead
// of batches, so it collapses by orders of magnitude on a stable
// concept while the served structure stays current.
func TestPublishOnChangeCollapsesRate(t *testing.T) {
	batches, schema := seaBatches(t, 200, 50, 42)

	build := func() model.Classifier {
		c, err := registry.New("VFDT (MC)", schema, registry.WithSeed(9))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	every, err := NewSnapshot(build(), 1)
	if err != nil {
		t.Fatal(err)
	}
	onChange, err := NewSnapshotOnChange(build())
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		every.Learn(b)
		onChange.Learn(b)
	}

	if every.Publishes() != uint64(len(batches))+1 {
		t.Fatalf("cadence scorer published %d times, want %d", every.Publishes(), len(batches)+1)
	}
	sv := onChange.Unwrap().(model.StructureVersioner)
	if sv.StructureVersion() == 0 {
		t.Fatal("precondition: the tree should have split at least once")
	}
	// One initial publish plus at most one per structural event (several
	// events inside one batch coalesce into a single publish).
	if got, max := onChange.Publishes(), sv.StructureVersion()+1; got > max {
		t.Fatalf("on-change scorer published %d times for %d structural events", got, max-1)
	}
	if onChange.Publishes() >= every.Publishes()/4 {
		t.Fatalf("publish rate did not collapse: on-change %d vs every-batch %d", onChange.Publishes(), every.Publishes())
	}

	// Both scorers must serve the same structure; only leaf-level
	// counters may be stale, and a forced Publish erases even that.
	onChange.Publish()
	for _, b := range batches[:20] {
		for _, x := range b.X {
			if every.Predict(x) != onChange.Predict(x) {
				t.Fatal("on-change scorer diverged after forced Publish")
			}
		}
	}
}

// TestPublishOnChangeStaleness pins the mode's contract: between
// structural events readers keep the last published snapshot, and a
// structural event republishes without a manual Publish.
func TestPublishOnChangeStaleness(t *testing.T) {
	batches, schema := seaBatches(t, 400, 50, 7)
	c, err := registry.New("VFDT (MC)", schema, registry.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshotOnChange(c)
	if err != nil {
		t.Fatal(err)
	}
	sv := c.(model.StructureVersioner)
	sawQuietBatch, sawEventBatch := false, false
	for _, b := range batches {
		beforeV, beforeP := sv.StructureVersion(), s.Publishes()
		s.Learn(b)
		afterV, afterP := sv.StructureVersion(), s.Publishes()
		if beforeV == afterV && afterP != beforeP {
			t.Fatal("published without a structural event")
		}
		if beforeV != afterV && afterP != beforeP+1 {
			t.Fatalf("structural event published %d times", afterP-beforeP)
		}
		sawQuietBatch = sawQuietBatch || beforeV == afterV
		sawEventBatch = sawEventBatch || beforeV != afterV
	}
	if !sawQuietBatch || !sawEventBatch {
		t.Fatalf("test stream not discriminating (quiet=%v event=%v)", sawQuietBatch, sawEventBatch)
	}
}

// TestPublishOnChangeRequiresStructureVersion: the structureless
// baselines must be rejected — their parameters drift every batch, so
// an on-change scorer would serve the initial model forever.
func TestPublishOnChangeRequiresStructureVersion(t *testing.T) {
	_, schema := seaBatches(t, 1, 8, 1)
	for _, name := range []string{"GLM", "Naive Bayes"} {
		c, err := registry.New(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSnapshotOnChange(c); err == nil {
			t.Fatalf("%s accepted by NewSnapshotOnChange", name)
		}
	}
	// Every tree learner and both ensembles must be accepted.
	for _, name := range []string{"DMT", "FIMT-DD", "VFDT (MC)", "VFDT (NBA)", "HT-Ada", "EFDT", "Forest Ens.", "Bagging Ens."} {
		c, err := registry.New(name, schema)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewSnapshotOnChange(c); err != nil {
			t.Fatalf("%s rejected by NewSnapshotOnChange: %v", name, err)
		}
	}
}

// TestRegistryDrivenPublishOnChange covers the serve.New path,
// including per-shard on-change scorers.
func TestRegistryDrivenPublishOnChange(t *testing.T) {
	batches, schema := seaBatches(t, 50, 50, 3)
	for _, mode := range []Mode{ModeSnapshot, ModeSharded} {
		s, err := New(Config{Model: "DMT", Schema: schema, Mode: mode, PublishOnChange: true, Shards: 2})
		if err != nil {
			t.Fatalf("mode %s: %v", mode, err)
		}
		for _, b := range batches {
			s.Learn(b)
		}
	}
	if _, err := New(Config{Model: "GLM", Schema: schema, PublishOnChange: true}); err == nil {
		t.Fatal("registry-driven on-change accepted GLM")
	}
}

// TestShardedRestoreIsAtomic: a corrupt checkpoint must leave a
// ShardedScorer completely untouched — never serving a mix of restored
// and pre-restore replicas.
func TestShardedRestoreIsAtomic(t *testing.T) {
	batches, schema := seaBatches(t, 30, 50, 21)
	mk := func() Scorer {
		s, err := New(Config{Model: "DMT", Schema: schema, Mode: ModeSharded, Shards: 3})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	source := mk()
	for _, b := range batches {
		source.Learn(b)
	}
	var ckpt bytes.Buffer
	if err := source.Checkpoint(&ckpt); err != nil {
		t.Fatal(err)
	}

	// Target and reference scorers share a different training history.
	target, reference := mk(), mk()
	for _, b := range batches[:10] {
		target.Learn(b)
		reference.Learn(b)
	}
	// Truncate inside the LAST shard's envelope: with the old in-place
	// restore, shards 0 and 1 would already be swapped when the error
	// surfaces.
	truncated := ckpt.Bytes()[:ckpt.Len()-20]
	if err := target.Restore(bytes.NewReader(truncated)); err == nil {
		t.Fatal("truncated sharded checkpoint accepted")
	}
	var pa, pb []int
	for _, b := range batches {
		pa = target.PredictBatch(b.X, pa)
		pb = reference.PredictBatch(b.X, pb)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("failed Restore mutated shard state")
			}
		}
	}
	// And the intact checkpoint still restores fully.
	if err := target.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		pa = target.PredictBatch(b.X, pa)
		pb = source.PredictBatch(b.X, pb)
		for i := range pa {
			if pa[i] != pb[i] {
				t.Fatal("restored sharded scorer diverged from checkpoint source")
			}
		}
	}
}

// BenchmarkPublishEveryOp and BenchmarkPublishOnChangeOp measure the
// publish-rate drop of the satellite: same model, same stream, the only
// difference is the publish policy. The publishes/batch metric is the
// headline number; ns/op shows the saved clone time.
func benchmarkPublishPolicy(b *testing.B, onChange bool) {
	batches, schema := seaBatches(b, 256, 50, 42)
	c, err := registry.New("VFDT (MC)", schema, registry.WithSeed(9))
	if err != nil {
		b.Fatal(err)
	}
	var s *SnapshotScorer
	if onChange {
		s, err = NewSnapshotOnChange(c)
	} else {
		s, err = NewSnapshot(c, 1)
	}
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Learn(batches[i%len(batches)])
	}
	b.StopTimer()
	b.ReportMetric(float64(s.Publishes())/float64(b.N), "publishes/batch")
}

func BenchmarkPublishEveryOp(b *testing.B)    { benchmarkPublishPolicy(b, false) }
func BenchmarkPublishOnChangeOp(b *testing.B) { benchmarkPublishPolicy(b, true) }

// A sharded checkpoint and a plain envelope stacked on one stream:
// Restore and FromCheckpoint must each consume exactly the sharded
// bytes, so the envelope behind them still loads.
func TestShardedCheckpointThenEnvelopeStack(t *testing.T) {
	batches, schema := seaBatches(t, 20, 50, 17)
	s, err := New(Config{Model: "DMT", Schema: schema, Mode: ModeSharded, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		s.Learn(b)
	}
	var stack bytes.Buffer
	if err := s.Checkpoint(&stack); err != nil {
		t.Fatal(err)
	}
	nb, err := registry.New("Naive Bayes", schema)
	if err != nil {
		t.Fatal(err)
	}
	if err := persist.Save(&stack, nb); err != nil {
		t.Fatal(err)
	}
	for name, read := range map[string]func(io.Reader) error{
		"Restore": s.Restore,
		"FromCheckpoint": func(r io.Reader) error {
			sc, err := FromCheckpoint(r, 1)
			if err == nil && sc.(*ShardedScorer).NumShards() != 3 {
				t.Fatalf("FromCheckpoint built %d shards", sc.(*ShardedScorer).NumShards())
			}
			return err
		},
	} {
		src := bytes.NewReader(stack.Bytes())
		if err := read(src); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		c, err := persist.Load(src)
		if err != nil {
			t.Fatalf("%s: envelope stacked behind the sharded checkpoint: %v", name, err)
		}
		if c.Name() != "Naive Bayes" || src.Len() != 0 {
			t.Fatalf("%s: loaded %q with %d bytes left", name, c.Name(), src.Len())
		}
	}
}
