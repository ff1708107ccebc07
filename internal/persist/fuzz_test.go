package persist_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"repro/internal/persist"
	"repro/internal/race"
	"repro/internal/registry"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"

	_ "repro/internal/core"
	_ "repro/internal/glm"
	_ "repro/internal/hoeffding"
	_ "repro/internal/nbayes"
)

// seedCheckpoints builds the fuzz seeds from the shapes the round-trip
// tests write: one DMT envelope, a 3-shard DMT bundle and a 3-arm racer
// bundle, each after a few SEA batches.
func seedCheckpoints(tb testing.TB) (single, sharded, racer []byte) {
	tb.Helper()
	gen := synth.NewSEA(1_000, 0.1, 5)
	var batches []stream.Batch
	for i := 0; i < 8; i++ {
		b, err := stream.NextBatch(gen, 50)
		if err != nil {
			tb.Fatal(err)
		}
		batches = append(batches, b)
	}
	capture := func(sc serve.Scorer) []byte {
		for _, b := range batches {
			sc.Learn(b)
		}
		var buf bytes.Buffer
		if err := sc.Checkpoint(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	dmt, err := registry.New("DMT", gen.Schema(), registry.WithSeed(5))
	if err != nil {
		tb.Fatal(err)
	}
	shards, err := serve.New(serve.Config{Model: "DMT", Schema: gen.Schema(), Mode: serve.ModeSharded, Shards: 3})
	if err != nil {
		tb.Fatal(err)
	}
	racing, err := race.New(race.Config{
		Schema: gen.Schema(),
		Arms:   []race.Arm{{Model: "GLM"}, {Model: "VFDT (MC)"}, {Model: "Naive Bayes"}},
		Seed:   5,
	})
	if err != nil {
		tb.Fatal(err)
	}
	return capture(serve.Wrap(dmt, 1)), capture(shards), capture(racing)
}

// allocLimit bounds what reading n input bytes of framing may allocate:
// the two first chunks readN reserves (header and payload), gob's up-front
// reservation for one slice whose length field is forged (at most 10 MiB,
// made before the decoder finds the elements missing), and a per-byte
// factor for the header values gob does decode, where one input byte can
// become a slice element of a few dozen bytes.
func allocLimit(n int) uint64 {
	return 64*uint64(n) + 2*persist.FirstChunk + 10<<20 + 64<<10
}

// allocated runs read and returns how many bytes it allocated.
func allocated(read func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	read()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzReadEnvelope holds the envelope reader to four rules: it never
// panics; it allocates in proportion to its input, not to the lengths
// the input claims; what it accepts is exactly the bytes it consumed,
// which read back to the same envelope and fail when cut short; and
// reconstructing an accepted envelope errors rather than panics.
func FuzzReadEnvelope(f *testing.F) {
	// The committed corpus under testdata/fuzz adds truncated and
	// forged-length variants to these seeds.
	single, _, _ := seedCheckpoints(f)
	f.Add(single)
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew := allocated(func() { persist.ReadEnvelope(bytes.NewReader(data)) }); grew > allocLimit(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		r := bytes.NewReader(data)
		raw, h, err := persist.ReadRaw(r)
		if err != nil {
			if raw != nil {
				t.Fatalf("error %v came with %d bytes", err, len(raw))
			}
			return
		}
		if used := len(data) - r.Len(); !bytes.Equal(raw, data[:used]) {
			t.Fatalf("ReadRaw returned %d bytes for %d consumed", len(raw), used)
		}
		env, err := persist.ReadEnvelope(bytes.NewReader(raw))
		if err != nil {
			t.Fatalf("accepted envelope does not read back: %v", err)
		}
		if fmt.Sprintf("%+v", env.Header) != fmt.Sprintf("%+v", h) {
			t.Fatalf("envelope header read back as %+v, first read %+v", env.Header, h)
		}
		if _, err := persist.ReadEnvelope(bytes.NewReader(raw[:len(raw)-1])); err == nil {
			t.Fatal("envelope cut one byte short accepted")
		}
		persist.LoadEnvelope(env)
	})
}

// FuzzReadBundle holds the bundle reader to the same rules: no panic;
// framing allocation in proportion to the input; an accepted bundle
// re-encodes to exactly the bytes it consumed, and fails when cut short;
// and reconstructing its members errors rather than panics.
func FuzzReadBundle(f *testing.F) {
	// The committed corpus under testdata/fuzz adds truncated and
	// forged-length variants to these seeds.
	single, sharded, racer := seedCheckpoints(f)
	f.Add(sharded)
	f.Add(racer)
	f.Add(single)
	f.Fuzz(func(t *testing.T, data []byte) {
		if grew := allocated(func() { persist.ReadBundleFrame(bytes.NewReader(data)) }); grew > allocLimit(len(data)) {
			t.Fatalf("%d input bytes allocated %d bytes", len(data), grew)
		}
		r := bytes.NewReader(data)
		b, raws, err := persist.ReadBundleFrame(r)
		if err != nil {
			if b != nil || raws != nil {
				t.Fatalf("error %v came with a bundle", err)
			}
			return
		}
		used := len(data) - r.Len()
		var again bytes.Buffer
		if err := persist.WriteBundle(&again, b.Kind, b.Meta, raws); err != nil {
			t.Fatalf("accepted bundle does not re-encode: %v", err)
		}
		if !bytes.Equal(again.Bytes(), data[:used]) {
			t.Fatalf("%q bundle of %d members re-encodes differently", b.Kind, len(raws))
		}
		if _, _, err := persist.ReadBundleFrame(bytes.NewReader(data[:used-1])); err == nil {
			t.Fatal("bundle cut one byte short accepted")
		}
		persist.ReadBundle(bytes.NewReader(data))
	})
}

// corpusSeed returns the input of one committed fuzz corpus file.
func corpusSeed(t *testing.T, target, name string) []byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", target, name))
	if err != nil {
		t.Fatal(err)
	}
	_, value, _ := strings.Cut(string(raw), "\n")
	quoted, ok := strings.CutPrefix(strings.TrimSpace(value), "[]byte(")
	if !ok {
		t.Fatalf("%s/%s is not a one-value []byte corpus file", target, name)
	}
	data, err := strconv.Unquote(strings.TrimSuffix(quoted, ")"))
	if err != nil {
		t.Fatalf("%s/%s: %v", target, name, err)
	}
	return []byte(data)
}

// The committed bundle seeds were written by another process: they must
// restore here, so FuzzReadBundle's accept path starts from them, and
// the envelope stacked behind a bundle must still load.
func TestCorpusBundlesRestore(t *testing.T) {
	for _, name := range []string{"sharded_dmt_3", "race_3", "bundle_then_envelope"} {
		r := bytes.NewReader(corpusSeed(t, "FuzzReadBundle", name))
		if _, err := serve.FromCheckpoint(r, 1); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "bundle_then_envelope" {
			if _, err := persist.Load(r); err != nil {
				t.Fatalf("%s: envelope behind the bundle: %v", name, err)
			}
		}
		if r.Len() != 0 {
			t.Fatalf("%s: %d bytes left unread", name, r.Len())
		}
	}
}
