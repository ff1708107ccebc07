package serve

import (
	"bytes"
	"testing"

	"repro/internal/model"
	"repro/internal/persist"
	"repro/internal/registry"
)

// In publish-on-change mode a Checkpoint with an unmoved structure
// version re-serves the cached capture byte-for-byte instead of
// re-encoding, and a moved version recaptures.
func TestCheckpointCacheOnChange(t *testing.T) {
	batches, schema := seaBatches(t, 400, 50, 42)
	c, err := registry.New("VFDT (MC)", schema, registry.WithSeed(9))
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSnapshotOnChange(c)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[:200] {
		s.Learn(b)
	}
	sv := s.Unwrap().(model.StructureVersioner)
	if sv.StructureVersion() == 0 {
		t.Fatal("precondition: the tree should have split at least once")
	}

	var a, b bytes.Buffer
	if err := s.Checkpoint(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("back-to-back checkpoints at one version differ")
	}

	// Advance the structure version; the next checkpoint must reflect it.
	v0 := sv.StructureVersion()
	for _, batch := range batches[200:] {
		s.Learn(batch)
		if sv.StructureVersion() != v0 {
			break
		}
	}
	if sv.StructureVersion() == v0 {
		t.Fatal("structure version never moved across 200 batches")
	}
	var c2 bytes.Buffer
	if err := s.Checkpoint(&c2); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a.Bytes(), c2.Bytes()) {
		t.Fatal("checkpoint did not recapture after the version moved")
	}
	_, h, err := persist.ReadRaw(bytes.NewReader(c2.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasStructVersion || h.StructVersion != sv.StructureVersion() {
		t.Fatalf("cached checkpoint header at version %d, live is %d", h.StructVersion, sv.StructureVersion())
	}
}
