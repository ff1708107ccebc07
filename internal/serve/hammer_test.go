package serve

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"repro/internal/stream"
	"repro/internal/synth"
)

// The checkpoint-during-Learn hammer: a trainer goroutine streams
// batches through the scorer while this goroutine checkpoints it as
// fast as it can. Checkpoint serialises against Learn, so every
// concurrent capture must land exactly at a batch boundary — and must
// therefore load into a model that predicts identically to the quiesced
// reference capture the trainer recorded at a boundary with the same
// structure version. A capture that straddles a Learn (torn leaf stats,
// a half-applied split) would disagree with every reference, and `-race`
// flags any unsynchronised state sharing along the way.
func TestCheckpointDuringLearnSnapshot(t *testing.T) {
	schema := synth.NewSEA(100, 0.1, 1).Schema()
	s, err := New(Config{Model: "VFDT (MC)", Schema: schema, PublishEvery: 1})
	if err != nil {
		t.Fatal(err)
	}

	const batches = 200
	probe, perr := stream.NextBatch(synth.NewSEA(200, 0, 999), 64)
	if perr != nil {
		t.Fatal(perr)
	}

	// refs[k] is the quiesced capture after batch k (refs[0] = untrained),
	// refVer[k] the structure version at that boundary. Written only by
	// the trainer goroutine, read after the join.
	type ref struct {
		raw []byte
		ver uint64
	}
	refs := make([]ref, 0, batches+1)
	snap := func() ref {
		var buf bytes.Buffer
		if err := s.Checkpoint(&buf); err != nil {
			t.Error(err)
		}
		v, _ := s.StructureVersion()
		return ref{raw: buf.Bytes(), ver: v}
	}
	refs = append(refs, snap())

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		gen := synth.NewSEA(batches*100, 0.1, 17)
		for i := 0; i < batches; i++ {
			b, err := stream.NextBatch(gen, 100)
			if err != nil {
				t.Error(err)
				return
			}
			s.Learn(b)
			refs = append(refs, snap())
		}
	}()

	// Hammer: capture concurrently with training until the trainer is
	// done. No pacing — each capture is a full state serialisation, so
	// the loop contends the Learn/Checkpoint mutex as hard as it can.
	// maxCaptures bounds the validation cost (under -race the hammer can
	// otherwise land thousands of captures).
	const maxCaptures = 300
	var captured [][]byte
	for {
		select {
		case <-done:
		default:
			if len(captured) >= maxCaptures {
				time.Sleep(time.Millisecond)
				continue
			}
			var buf bytes.Buffer
			if err := s.Checkpoint(&buf); err != nil {
				t.Fatalf("concurrent checkpoint: %v", err)
			}
			captured = append(captured, buf.Bytes())
			continue
		}
		break
	}
	wg.Wait()
	if len(captured) < 5 {
		t.Fatalf("only %d concurrent captures landed; hammer too slow to mean anything", len(captured))
	}

	// Pre-load every reference once.
	refPreds := make(map[int][]int, len(refs))
	loadPreds := func(raw []byte) ([]int, uint64) {
		sc, err := FromCheckpoint(bytes.NewReader(raw), 1)
		if err != nil {
			t.Fatalf("capture does not load: %v", err)
		}
		v, _ := sc.StructureVersion()
		return sc.PredictBatch(probe.X, nil), v
	}

	for ci, raw := range captured {
		got, v := loadPreds(raw)
		// The capture must predict identically to a quiesced boundary
		// capture at the same structure version.
		matched := false
		for k := range refs {
			if refs[k].ver != v {
				continue
			}
			want, ok := refPreds[k]
			if !ok {
				want, _ = loadPreds(refs[k].raw)
				refPreds[k] = want
			}
			if equalPreds(got, want) {
				matched = true
				break
			}
		}
		if !matched {
			t.Fatalf("capture %d (version %d) matches no quiesced boundary capture at that version: torn checkpoint", ci, v)
		}
	}
	t.Logf("%d concurrent captures, all consistent with batch-boundary state", len(captured))
}

func equalPreds(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
