package persist

import (
	"bytes"
	"encoding/gob"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// fakeBundle writes a "test" bundle of n fake models (counts 1..n)
// carrying meta.
func fakeBundle(t *testing.T, n int, meta []byte) []byte {
	t.Helper()
	members := make([][]byte, n)
	for i := range members {
		var env bytes.Buffer
		if err := Save(&env, &fakeModel{schema: testSchema(), count: i + 1}); err != nil {
			t.Fatal(err)
		}
		members[i] = env.Bytes()
	}
	var buf bytes.Buffer
	if err := WriteBundle(&buf, "test", meta, members); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestBundleRoundTrip(t *testing.T) {
	raw := fakeBundle(t, 3, []byte("composite state"))
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if b.Kind != "test" || string(b.Meta) != "composite state" || len(b.Members) != 3 {
		t.Fatalf("bundle read back as kind %q, meta %q, %d members", b.Kind, b.Meta, len(b.Members))
	}
	for i, c := range b.Members {
		if c.(*fakeModel).count != i+1 {
			t.Fatalf("member %d out of order", i)
		}
	}
	_, _, raws, err := readBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := WriteBundle(&again, b.Kind, b.Meta, raws); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("bundle does not re-encode to its own bytes")
	}
}

// TestBundleFromAnotherProcess reads a bundle that a separate process
// wrote. Gob numbers types process-wide in the order they are first
// encoded, so the writer first encodes two types this process never
// does: nothing in the bundle's framing may depend on that history.
func TestBundleFromAnotherProcess(t *testing.T) {
	const outEnv = "PERSIST_TEST_BUNDLE_OUT"
	if out := os.Getenv(outEnv); out != "" {
		type first struct{ A int }
		type second struct{ B []string }
		for _, v := range []any{first{1}, second{[]string{"x"}}} {
			if err := gob.NewEncoder(io.Discard).Encode(v); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(out, fakeBundle(t, 3, []byte("meta")), 0o600); err != nil {
			t.Fatal(err)
		}
		return
	}
	path := filepath.Join(t.TempDir(), "bundle")
	cmd := exec.Command(os.Args[0], "-test.run=^TestBundleFromAnotherProcess$")
	cmd.Env = append(os.Environ(), outEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("writer process: %v\n%s", err, out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	fakeBundle(t, 1, nil) // this process's own write history comes first
	b, err := ReadBundle(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("bundle from another process: %v", err)
	}
	if b.Kind != "test" || string(b.Meta) != "meta" || len(b.Members) != 3 {
		t.Fatalf("bundle read back as kind %q, meta %q, %d members", b.Kind, b.Meta, len(b.Members))
	}
}

// A bundle and a plain envelope stacked on one stream read back to back:
// ReadBundle consumes exactly the bundle.
func TestBundleThenEnvelopeStack(t *testing.T) {
	stack := append(fakeBundle(t, 2, nil), savedFake(t)...)
	r := bytes.NewReader(stack)
	if _, err := ReadBundle(r); err != nil {
		t.Fatal(err)
	}
	c, err := Load(r)
	if err != nil {
		t.Fatalf("envelope behind the bundle: %v", err)
	}
	if c.(*fakeModel).count != 41 || r.Len() != 0 {
		t.Fatalf("stacked envelope misread (%d bytes left)", r.Len())
	}
}

func TestBundleRejectsDamage(t *testing.T) {
	raw := fakeBundle(t, 3, []byte{1, 2, 3})
	var last bytes.Buffer
	if err := Save(&last, &fakeModel{schema: testSchema(), count: 3}); err != nil {
		t.Fatal(err)
	}
	// The cuts include the last member's boundary: the header still
	// claims three members when only two follow.
	for _, cut := range []int{0, 7, 12, 40, len(raw) / 2, len(raw) - last.Len(), len(raw) - 1} {
		if _, err := ReadBundle(bytes.NewReader(raw[:cut])); err == nil {
			t.Fatalf("bundle truncated to %d of %d bytes accepted", cut, len(raw))
		}
	}
	if _, err := ReadBundle(bytes.NewReader(savedFake(t))); err == nil || !strings.Contains(err.Error(), "not a bundle") {
		t.Fatalf("plain envelope read as a bundle: %v", err)
	}
	if err := WriteBundle(&bytes.Buffer{}, "", nil, [][]byte{savedFake(t)}); err == nil {
		t.Fatal("bundle without a kind written")
	}
	if err := WriteBundle(&bytes.Buffer{}, "test", nil, nil); err == nil {
		t.Fatal("bundle without members written")
	}
}

// A forged payload length must not allocate what it claims: the payload
// buffer grows only as bytes arrive.
func TestReadEnvelopeAllocBoundedByInput(t *testing.T) {
	forged := rewriteHeader(t, savedFake(t), func(h *Header) { h.PayloadLen = maxPayloadLen - 1 })
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadEnvelope(bytes.NewReader(forged))
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("forged payload length accepted")
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 2*firstChunk {
		t.Fatalf("%d-byte envelope declaring a %d-byte payload allocated %d bytes", len(forged), maxPayloadLen-1, grew)
	}
}

// readN reads honest sections larger than the first chunk intact.
func TestReadNGrowsPastFirstChunk(t *testing.T) {
	want := make([]byte, 3*firstChunk+5)
	for i := range want {
		want[i] = byte(i * 7)
	}
	got, err := readN(bytes.NewReader(want[2:]), want[:2:2], int64(len(want)-2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("readN corrupted a multi-chunk section")
	}
	if _, err := readN(bytes.NewReader(want), nil, int64(len(want)+1)); err == nil {
		t.Fatal("readN returned a short section without an error")
	}
}
