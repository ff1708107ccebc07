package persist

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"hash/crc32"
	"io"
	"strings"
	"testing"

	"repro/internal/model"
	"repro/internal/registry"
	"repro/internal/stream"
)

// fakeModel is a minimal external learner exercising the envelope
// contract without pulling in any real learner package.
type fakeModel struct {
	schema stream.Schema
	count  int
}

func (f *fakeModel) Learn(b stream.Batch)    { f.count += b.Len() }
func (f *fakeModel) Predict(x []float64) int { return f.count % f.schema.NumClasses }
func (f *fakeModel) Name() string            { return "persist-test-fake" }
func (f *fakeModel) Schema() stream.Schema   { return f.schema }
func (f *fakeModel) Complexity() model.Complexity {
	return model.Complexity{Leaves: 1, Params: float64(f.count)}
}
func (f *fakeModel) SaveState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(f.count)
}
func (f *fakeModel) CheckpointParams() registry.Params {
	return registry.Params{Seed: 123}
}

func init() {
	registry.RegisterLoader("persist-test-fake", func(schema stream.Schema, p registry.Params, r io.Reader) (model.Classifier, error) {
		f := &fakeModel{schema: schema}
		if err := gob.NewDecoder(r).Decode(&f.count); err != nil {
			return nil, err
		}
		return f, nil
	})
}

func testSchema() stream.Schema {
	return stream.Schema{NumFeatures: 3, NumClasses: 2, Name: "persist-test"}
}

func savedFake(t *testing.T) []byte {
	t.Helper()
	f := &fakeModel{schema: testSchema(), count: 41}
	var buf bytes.Buffer
	if err := Save(&buf, f); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestRoundTripExternalModel(t *testing.T) {
	raw := savedFake(t)
	c, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	g, ok := c.(*fakeModel)
	if !ok {
		t.Fatalf("loaded %T", c)
	}
	if g.count != 41 || g.schema.NumFeatures != 3 || g.schema.NumClasses != 2 {
		t.Fatalf("state lost: %+v", g)
	}
	// The envelope itself is self-describing.
	env, err := ReadEnvelope(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if env.Header.Model != "persist-test-fake" || env.Header.Version != FormatVersion {
		t.Fatalf("header: %+v", env.Header)
	}
	if env.Header.Params.Seed != 123 {
		t.Fatalf("resolved params not embedded: %+v", env.Header.Params)
	}
	if env.Header.Schema.NumFeatures != 3 || env.Header.Schema.NumClasses != 2 || env.Header.Schema.Name != "persist-test" {
		t.Fatalf("schema not embedded: %+v", env.Header.Schema)
	}
}

func TestStackedEnvelopesConsumeExactBytes(t *testing.T) {
	// Two envelopes on one stream (the layout of a bundle's members) must load
	// back to back with no over-read.
	var buf bytes.Buffer
	a := &fakeModel{schema: testSchema(), count: 1}
	b := &fakeModel{schema: testSchema(), count: 2}
	if err := Save(&buf, a); err != nil {
		t.Fatal(err)
	}
	if err := Save(&buf, b); err != nil {
		t.Fatal(err)
	}
	r := bytes.NewReader(buf.Bytes())
	la, err := Load(r)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := Load(r)
	if err != nil {
		t.Fatal(err)
	}
	if la.(*fakeModel).count != 1 || lb.(*fakeModel).count != 2 {
		t.Fatal("stacked envelopes mixed up")
	}
	if r.Len() != 0 {
		t.Fatalf("%d bytes left unconsumed", r.Len())
	}
}

// rewriteHeader re-frames a valid envelope with a mutated header
// (re-checksumming is up to the mutator).
func rewriteHeader(t *testing.T, raw []byte, mutate func(*Header)) []byte {
	t.Helper()
	env, err := ReadEnvelope(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	h := env.Header
	mutate(&h)
	var hdr bytes.Buffer
	if err := gob.NewEncoder(&hdr).Encode(h); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	io.WriteString(&out, Magic)
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(hdr.Len()))
	out.Write(hlen[:])
	out.Write(hdr.Bytes())
	out.Write(env.Payload)
	return out.Bytes()
}

func TestVersionSkewErrors(t *testing.T) {
	raw := savedFake(t)

	newer := rewriteHeader(t, raw, func(h *Header) { h.Version = FormatVersion + 7 })
	_, err := Load(bytes.NewReader(newer))
	if err == nil || !strings.Contains(err.Error(), "newer than this build") {
		t.Fatalf("future version error unhelpful: %v", err)
	}

	older := rewriteHeader(t, raw, func(h *Header) { h.Version = 1 })
	_, err = Load(bytes.NewReader(older))
	if err == nil || !strings.Contains(err.Error(), "predates the envelope") || strings.Contains(err.Error(), "LoadDMT") {
		t.Fatalf("legacy version error should say the format predates the envelope: %v", err)
	}
}

func TestChecksumMismatchNamesTheProblem(t *testing.T) {
	raw := savedFake(t)
	bad := rewriteHeader(t, raw, func(h *Header) { h.PayloadCRC ^= 0xdeadbeef })
	_, err := Load(bytes.NewReader(bad))
	if err == nil || !strings.Contains(err.Error(), "checksum mismatch") {
		t.Fatalf("checksum error unhelpful: %v", err)
	}
}

func TestUnknownLoaderError(t *testing.T) {
	raw := rewriteHeader(t, savedFake(t), func(h *Header) { h.Model = "never-registered" })
	// Header rewrite keeps the payload CRC valid, so the failure is
	// attributed to the missing loader, not corruption.
	_, err := Load(bytes.NewReader(raw))
	if err == nil || !strings.Contains(err.Error(), "no checkpoint loader registered") {
		t.Fatalf("unknown loader error unhelpful: %v", err)
	}
}

func TestImplausibleHeaderLengthRejected(t *testing.T) {
	var buf bytes.Buffer
	io.WriteString(&buf, Magic)
	var hlen [4]byte
	binary.BigEndian.PutUint32(hlen[:], uint32(maxHeaderLen+1))
	buf.Write(hlen[:])
	if _, err := Load(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("implausible header length accepted")
	}
}

func TestSaveRequiresCheckpointerAndLoader(t *testing.T) {
	type plain struct{ model.Classifier }
	if err := Save(io.Discard, plain{&fakeModel{schema: testSchema()}}); err == nil {
		t.Fatal("Save accepted a non-Checkpointer")
	}
	// A Checkpointer whose name has no loader is rejected up front, so
	// unloadable checkpoints are never written.
	orphan := &orphanModel{fakeModel{schema: testSchema()}}
	if err := Save(io.Discard, orphan); err == nil || !strings.Contains(err.Error(), "no registered checkpoint loader") {
		t.Fatalf("orphan checkpointer error unhelpful: %v", err)
	}
}

type orphanModel struct{ fakeModel }

func (o *orphanModel) Name() string { return "persist-test-orphan" }

// ReadRaw returns the envelope's verbatim wire bytes — relayable and
// loadable as-is — plus the decoded header, consuming exactly one
// envelope even off a non-seekable stream (here: an io.Pipe standing in
// for an HTTP body).
func TestReadRawRelaysVerbatimBytes(t *testing.T) {
	raw := savedFake(t)
	second := savedFake(t)

	pr, pw := io.Pipe()
	go func() {
		pw.Write(raw)
		pw.Write(second)
		pw.Close()
	}()
	got, h, err := ReadRaw(pr)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Fatal("ReadRaw bytes differ from the written envelope")
	}
	if h.Model != "persist-test-fake" || h.Version != FormatVersion {
		t.Fatalf("header: %+v", h)
	}
	// The relayed bytes load without touching the origin again.
	c, err := Load(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if c.(*fakeModel).count != 41 {
		t.Fatal("relayed envelope lost state")
	}
	// Exactly one envelope was consumed: the next one still reads.
	if _, _, err := ReadRaw(pr); err != nil {
		t.Fatalf("second stacked envelope unreadable after ReadRaw: %v", err)
	}
}

// A corrupt envelope never comes back from ReadRaw — the relay cache can
// only ever hold validated bytes.
func TestReadRawRejectsCorruption(t *testing.T) {
	bad := rewriteHeader(t, savedFake(t), func(h *Header) { h.PayloadCRC ^= 1 })
	if raw, _, err := ReadRaw(bytes.NewReader(bad)); err == nil || raw != nil {
		t.Fatalf("corrupt envelope relayed: raw=%v err=%v", raw != nil, err)
	}
}

func TestPayloadCRCMatchesIEEE(t *testing.T) {
	raw := savedFake(t)
	env, err := ReadEnvelope(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if crc32.ChecksumIEEE(env.Payload) != env.Header.PayloadCRC {
		t.Fatal("header CRC does not cover the payload bytes")
	}
}
