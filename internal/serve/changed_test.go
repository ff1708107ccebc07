package serve

import (
	"bytes"
	"testing"

	"repro/internal/stream"
	"repro/internal/synth"
)

func isClosed(ch <-chan struct{}) bool {
	select {
	case <-ch:
		return true
	default:
		return false
	}
}

// TestChangedContract pins Scorer.Changed on every implementation: the
// channel taken before a Learn is closed exactly when that Learn moved
// StructureVersion, and Restore always closes it.
func TestChangedContract(t *testing.T) {
	schema := synth.NewSEA(100, 0.1, 1).Schema()
	cases := []struct {
		name string
		cfg  Config
	}{
		{"locked", Config{Model: "VFDT (MC)", Mode: ModeLocked}},
		{"snapshot-cadence", Config{Model: "VFDT (MC)", PublishEvery: 3}},
		{"snapshot-on-change", Config{Model: "VFDT (MC)", PublishOnChange: true}},
		{"sharded", Config{Model: "VFDT (MC)", Mode: ModeSharded, Shards: 2}},
		{"racer", Config{Model: "race:vfdt,glm"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.Schema = schema
			s, err := New(tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			var ckpt bytes.Buffer
			if err := s.Checkpoint(&ckpt); err != nil {
				t.Fatal(err)
			}
			gen := synth.NewSEA(40_000, 0.1, 7)
			moved, still := 0, 0
			for i := 0; i < 400 && (moved < 2 || still < 2); i++ {
				b, err := stream.NextBatch(gen, 100)
				if err != nil {
					t.Fatal(err)
				}
				ch := s.Changed()
				before, _ := s.StructureVersion()
				s.Learn(b)
				after, _ := s.StructureVersion()
				switch closed := isClosed(ch); {
				case after != before && !closed:
					t.Fatalf("batch %d moved the version %d -> %d but Changed stayed open", i, before, after)
				case after == before && closed:
					t.Fatalf("batch %d left the version at %d but Changed closed", i, after)
				case after != before:
					moved++
				default:
					still++
				}
			}
			if moved < 2 || still < 2 {
				t.Fatalf("stream exercised %d moving and %d still Learns, want at least 2 of each", moved, still)
			}
			ch := s.Changed()
			if err := s.Restore(bytes.NewReader(ckpt.Bytes())); err != nil {
				t.Fatal(err)
			}
			if !isClosed(ch) {
				t.Fatal("Restore left Changed open")
			}
		})
	}
}
