package serve_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/race"
	"repro/internal/serve"
	"repro/internal/stream"
	"repro/internal/synth"
)

// The racer implements the full Scorer contract structurally (the race
// package cannot import serve), so pin it at compile time here.
var _ serve.Scorer = (*race.Racer)(nil)

func raceSchemaStream(samples int, seed int64) stream.Stream {
	return synth.NewHyperplane(samples, 4, 0.03, seed)
}

// TestServeRaceSpec builds a racer through the registry-driven serving
// constructor with the "race:" model spec grammar.
func TestServeRaceSpec(t *testing.T) {
	s := raceSchemaStream(2_000, 5)
	sc, err := serve.New(serve.Config{Model: "race:glm,nb,vfdt", Schema: s.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	r, ok := sc.(*race.Racer)
	if !ok {
		t.Fatalf("race spec built a %T, want *race.Racer", sc)
	}
	if got := r.Name(); !strings.Contains(got, "GLM") || !strings.Contains(got, "VFDT") {
		t.Fatalf("racer name %q does not list the resolved arms", got)
	}
	for i := 0; i < 20; i++ {
		b, err := stream.NextBatch(s, 50)
		if err != nil {
			t.Fatal(err)
		}
		sc.Learn(b)
	}
	if sc.Predict([]float64{0.1, 0.2, 0.3, 0.4}) < 0 {
		t.Fatal("racer served no prediction")
	}
	if _, err := serve.New(serve.Config{Model: "race:glm,nosuch", Schema: s.Schema()}); err == nil {
		t.Fatal("unknown arm in a race spec must fail")
	}
}

// TestFromCheckpointRace round-trips a racer through the generic
// scorer checkpoint bootstrap: the "race" bundle kind dispatches to the
// race loader and the restored scorer serves identically.
func TestFromCheckpointRace(t *testing.T) {
	s := raceSchemaStream(3_000, 9)
	sc, err := serve.New(serve.Config{Model: "race:glm,nb", Schema: s.Schema()})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		b, err := stream.NextBatch(s, 50)
		if err != nil {
			t.Fatal(err)
		}
		sc.Learn(b)
	}
	var ck bytes.Buffer
	if err := sc.Checkpoint(&ck); err != nil {
		t.Fatal(err)
	}
	restored, err := serve.FromCheckpoint(bytes.NewReader(ck.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.(*race.Racer); !ok {
		t.Fatalf("RACE bytes reconstructed a %T, want *race.Racer", restored)
	}
	rows := [][]float64{
		{0.1, 0.9, 0.4, 0.2},
		{0.8, 0.1, 0.6, 0.7},
		{0.5, 0.5, 0.5, 0.5},
	}
	var a, b []int
	a = sc.PredictBatch(rows, a)
	b = restored.PredictBatch(rows, b)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("restored racer predicts %v, original %v", b, a)
		}
	}
	va, oka := sc.StructureVersion()
	vb, okb := restored.StructureVersion()
	if va != vb || oka != okb {
		t.Fatalf("restored structure version %d/%v, want %d/%v", vb, okb, va, oka)
	}
}
