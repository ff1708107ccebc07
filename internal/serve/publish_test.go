package serve

import (
	"testing"

	"repro/internal/model"
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

// TestRegistryDrivenPublishOnChange covers the serve.New path.
func TestRegistryDrivenPublishOnChange(t *testing.T) {
	batches, schema := seaBatches(t, 50, 50, 3)
	s, err := New(Config{Model: "DMT", Schema: schema, PublishOnChange: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches {
		s.Learn(b)
	}
	if _, err := New(Config{Model: "GLM", Schema: schema, PublishOnChange: true}); err == nil {
		t.Fatal("registry-driven on-change accepted GLM")
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
