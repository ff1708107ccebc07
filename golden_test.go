package repro

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// The determinism contract as a committed table: for every registered
// model served through Serve, and for a three-arm racer, the digest of
// every batch's test-then-train predictions, of the final Complexity and
// of the final checkpoint bytes, on a fixed set of short seeded streams.
// A change that alters what every path computes — a one-ulp change in
// linalg, a different default seed, a reordered reduction — moves a
// digest here even when every same-build identity test still passes.
//
// Regenerate after a deliberate change with
//
//	go test -run '^TestGolden$' . -update
//
// and name every moved digest, and why, in the change description.

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden.txt from this build")

const (
	goldenPath = "testdata/golden.txt"
	// goldenChildEnv makes TestGolden print its digests instead of
	// checking them. The digests are computed in a fresh process: gob
	// numbers types process-wide in first-use order, so checkpoint bytes
	// depend on what the process encoded before.
	goldenChildEnv = "REPRO_GOLDEN_CHILD"
	goldenPrefix   = "golden\t"
	goldenRace     = "race:dmt,vfdt,nb"
)

// goldenStream is one fixed, seeded evaluation stream, built fresh per
// model so every model sees the same rows, and its batch size.
type goldenStream struct {
	name  string
	batch int
	new   func() Stream
}

// goldenStreams are the fixed, seeded evaluation streams, each built
// fresh per model so every model sees the same rows.
func goldenStreams() []goldenStream {
	gas := func() Stream {
		e, err := DatasetByName("Gas")
		if err != nil {
			panic(err)
		}
		return LimitStream(e.New(0.05, 5), 2400)
	}
	return []goldenStream{
		{"SEA", 100, func() Stream { return NewSEA(12000, 0.1, 1) }},
		{"Agrawal", 100, func() Stream { return NewAgrawal(40000, 0.05, 2) }},
		{"Hyperplane", 100, func() Stream { return NewHyperplane(4000, 50, 0.1, 3) }},
		{"Gas*", 600, gas},
		{"Categorical", 100, func() Stream { return NewCategoricalConcept(4000, 6, 0.05, 4) }},
		{"Switch", 100, func() Stream {
			return NewAbruptSwitch(8000, 6, NewHyperplane(0, 10, 0.05, 7), NewHyperplane(0, 10, 0.05, 8))
		}},
	}
}

// goldenDigests serves every registered model and the racer, with their
// default options, over every golden stream in batches, and
// returns one line per (model, stream): the hex SHA-256 prefixes of the
// predictions, the final Complexity and the final checkpoint.
func goldenDigests(t *testing.T) []string {
	t.Helper()
	var lines []string
	for _, name := range append(Models(), goldenRace) {
		for _, gs := range goldenStreams() {
			src := gs.new()
			s, err := Serve(name, src.Schema())
			if err != nil {
				t.Fatalf("%s on %s: %v", name, gs.name, err)
			}
			preds := sha256.New()
			var out []int
			for {
				b, err := NextBatch(src, gs.batch)
				if err != nil {
					break
				}
				out = s.PredictBatch(b.X, out)
				for _, y := range out {
					binary.Write(preds, binary.LittleEndian, int64(y))
				}
				s.Learn(b)
			}
			c := s.Complexity()
			comp := sha256.New()
			binary.Write(comp, binary.LittleEndian, [5]uint64{
				math.Float64bits(c.Splits), math.Float64bits(c.Params),
				uint64(c.Inner), uint64(c.Leaves), uint64(c.Depth),
			})
			var ckpt bytes.Buffer
			if err := s.Checkpoint(&ckpt); err != nil {
				t.Fatalf("%s on %s: checkpoint: %v", name, gs.name, err)
			}
			ck := sha256.Sum256(ckpt.Bytes())
			lines = append(lines, fmt.Sprintf("%s\t%s\tpreds=%s\tcomplexity=%s\tcheckpoint=%s",
				name, gs.name, short(preds.Sum(nil)), short(comp.Sum(nil)), short(ck[:])))
		}
	}
	return lines
}

func short(sum []byte) string { return hex.EncodeToString(sum[:8]) }

// goldenChild runs goldenDigests in a fresh copy of this test binary
// (same GOMAXPROCS) and returns its lines.
func goldenChild(t *testing.T) []string {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestGolden$", "-test.count=1")
	cmd.Env = append(os.Environ(), goldenChildEnv+"=1")
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("digest process: %v\n%s", err, out)
	}
	var lines []string
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if l, ok := strings.CutPrefix(sc.Text(), goldenPrefix); ok {
			lines = append(lines, l)
		}
	}
	if len(lines) == 0 {
		t.Fatalf("digest process printed no digests:\n%s", out)
	}
	return lines
}

func TestGolden(t *testing.T) {
	if os.Getenv(goldenChildEnv) != "" {
		for _, l := range goldenDigests(t) {
			fmt.Println(goldenPrefix + l)
		}
		return
	}
	if testing.Short() {
		t.Skip("golden digests run in the full suite and under make inline")
	}
	got := goldenChild(t)
	// Go may fuse multiply-adds on arm64, ppc64 and s390x, so the
	// committed digests hold on amd64 only; elsewhere two runs must
	// still agree.
	if runtime.GOARCH != "amd64" {
		if *updateGolden {
			t.Fatal("golden digests are pinned on amd64; regenerate them there")
		}
		if again := goldenChild(t); strings.Join(again, "\n") != strings.Join(got, "\n") {
			t.Fatal("two runs of the golden digests disagree")
		}
		return
	}
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	raw, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	want := strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n")
	if len(want) != len(got) {
		t.Fatalf("%d golden digests, this build computes %d", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("digest moved:\n  want %s\n  got  %s", want[i], got[i])
		}
	}
}
