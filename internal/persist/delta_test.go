package persist

import (
	"bytes"
	"encoding/gob"
	"io"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"
)

// versionedFake is a minimal StructureVersioner learner with a payload
// large enough to exercise the rolling block diff: a slab of bytes of
// which each "structural change" rewrites only a small window.
type versionedFake struct {
	schema  stream.Schema
	version uint64
	state   []byte
}

func (f *versionedFake) Learn(b stream.Batch)    {}
func (f *versionedFake) Predict(x []float64) int { return 0 }
func (f *versionedFake) Name() string            { return "persist-test-versioned" }
func (f *versionedFake) Schema() stream.Schema   { return f.schema }
func (f *versionedFake) Complexity() model.Complexity {
	return model.Complexity{Leaves: 1}
}
func (f *versionedFake) StructureVersion() uint64 { return f.version }
func (f *versionedFake) SaveState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(struct {
		Version uint64
		State   []byte
	}{f.version, f.state})
}

func init() {
	registry.RegisterLoader("persist-test-versioned", func(schema stream.Schema, p registry.Params, r io.Reader) (model.Classifier, error) {
		var st struct {
			Version uint64
			State   []byte
		}
		if err := gob.NewDecoder(r).Decode(&st); err != nil {
			return nil, err
		}
		return &versionedFake{schema: schema, version: st.Version, state: st.State}, nil
	})
}

// newVersionedFake builds the fake with a deterministic 64KiB slab.
func newVersionedFake() *versionedFake {
	rng := rand.New(rand.NewSource(7))
	state := make([]byte, 64<<10)
	rng.Read(state)
	return &versionedFake{schema: testSchema(), state: state}
}

// mutate applies one "local structural change": bump the version and
// rewrite a 256-byte window.
func (f *versionedFake) mutate(rng *rand.Rand) {
	f.version++
	off := rng.Intn(len(f.state) - 256)
	rng.Read(f.state[off : off+256])
}

func saved(t *testing.T, f *versionedFake) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDeltaRoundTripByteIdentical(t *testing.T) {
	f := newVersionedFake()
	rng := rand.New(rand.NewSource(11))
	base := saved(t, f)
	f.mutate(rng)
	target := saved(t, f)

	d, err := MakeDelta(base, target)
	if err != nil {
		t.Fatal(err)
	}
	if d.Header.BaseVersion != 0 || d.Header.TargetVersion != 1 {
		t.Fatalf("delta keyed %d→%d, want 0→1", d.Header.BaseVersion, d.Header.TargetVersion)
	}
	// A local change must produce a small delta: the 64KiB slab moved by
	// 256 bytes, so the patch should be well under a tenth of the full
	// envelope.
	if 10*len(d.Patch) > len(target) {
		t.Fatalf("patch is %d bytes for a %d byte envelope: no structural sharing", len(d.Patch), len(target))
	}

	// Wire round trip, then apply: byte-identical to the full save.
	var buf bytes.Buffer
	if err := WriteDelta(&buf, d); err != nil {
		t.Fatal(err)
	}
	rd, err := ReadDelta(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := rd.Apply(base)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, target) {
		t.Fatal("base+delta is not byte-identical to the full save")
	}
	// And the reconstruction loads.
	if _, err := Load(bytes.NewReader(got)); err != nil {
		t.Fatal(err)
	}
}

// chain builds a base envelope plus n consecutive deltas.
func chain(t *testing.T, n int) (base []byte, deltas []*Delta, head []byte) {
	t.Helper()
	f := newVersionedFake()
	rng := rand.New(rand.NewSource(13))
	base = saved(t, f)
	prev := base
	for i := 0; i < n; i++ {
		f.mutate(rng)
		next := saved(t, f)
		d, err := MakeDelta(prev, next)
		if err != nil {
			t.Fatal(err)
		}
		deltas = append(deltas, d)
		prev = next
	}
	return base, deltas, prev
}

func TestDeltaChainByteIdentical(t *testing.T) {
	base, deltas, head := chain(t, 4)
	got, err := ApplyChain(base, deltas...)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, head) {
		t.Fatal("base+chain is not byte-identical to the head full save")
	}
}

func TestDeltaChainOutOfOrderRejected(t *testing.T) {
	base, deltas, _ := chain(t, 3)
	swapped := []*Delta{deltas[0], deltas[2], deltas[1]}
	_, err := ApplyChain(base, swapped...)
	if err == nil {
		t.Fatal("out-of-order chain accepted")
	}
	if !strings.Contains(err.Error(), "version gap") && !strings.Contains(err.Error(), "out of order") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

func TestDeltaChainVersionGapRejected(t *testing.T) {
	base, deltas, _ := chain(t, 3)
	gapped := []*Delta{deltas[0], deltas[2]} // skip 1→2
	_, err := ApplyChain(base, gapped...)
	if err == nil {
		t.Fatal("gapped chain accepted")
	}
	if !strings.Contains(err.Error(), "version gap") {
		t.Fatalf("undescriptive error: %v", err)
	}

	// A chain that does not start at the base's version is also a gap.
	_, err = ApplyChain(base, deltas[1])
	if err == nil {
		t.Fatal("chain starting past the base accepted")
	}
	if !strings.Contains(err.Error(), "version gap") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

func TestDeltaWrongBaseRejected(t *testing.T) {
	base, deltas, _ := chain(t, 2)
	// deltas[1] was computed against base+deltas[0], not base.
	_, err := deltas[1].Apply(base)
	if err == nil {
		t.Fatal("wrong base accepted")
	}
	if !strings.Contains(err.Error(), "not the envelope it was computed against") {
		t.Fatalf("undescriptive error: %v", err)
	}

	// A bit flip in the right base is also rejected before patching.
	flipped := append([]byte(nil), base...)
	flipped[len(flipped)/2] ^= 0x40
	_, err = deltas[0].Apply(flipped)
	if err == nil {
		t.Fatal("corrupt base accepted")
	}
}

func TestDeltaTruncatedRejected(t *testing.T) {
	base, deltas, _ := chain(t, 1)
	var buf bytes.Buffer
	if err := WriteDelta(&buf, deltas[0]); err != nil {
		t.Fatal(err)
	}
	wire := buf.Bytes()
	for _, cut := range []int{4, 10, len(wire) / 2, len(wire) - 1} {
		if _, err := ReadDelta(bytes.NewReader(wire[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		} else if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("undescriptive error at cut %d: %v", cut, err)
		}
	}

	// A corrupted patch body fails the patch checksum.
	corrupt := append([]byte(nil), wire...)
	corrupt[len(corrupt)-1] ^= 0x01
	if _, err := ReadDelta(bytes.NewReader(corrupt)); err == nil {
		t.Fatal("corrupt patch accepted")
	} else if !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("undescriptive error: %v", err)
	}
	_ = base
}

func TestDeltaModelMismatchRejected(t *testing.T) {
	f := newVersionedFake()
	base := saved(t, f)
	other := savedFake(t)
	if _, err := MakeDelta(base, other); err == nil {
		t.Fatal("cross-model delta accepted")
	} else if !strings.Contains(err.Error(), "disagree on model") {
		t.Fatalf("undescriptive error: %v", err)
	}
}

func TestDeltaStructVersionInHeader(t *testing.T) {
	f := newVersionedFake()
	f.version = 9
	raw := saved(t, f)
	_, h, err := ReadRaw(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !h.HasStructVersion || h.StructVersion != 9 {
		t.Fatalf("header version = (%v, %d), want (true, 9)", h.HasStructVersion, h.StructVersion)
	}
	// The versionless fake reports none.
	_, h2, err := ReadRaw(bytes.NewReader(savedFake(t)))
	if err != nil {
		t.Fatal(err)
	}
	if h2.HasStructVersion {
		t.Fatal("versionless model claims a structure version")
	}
}
