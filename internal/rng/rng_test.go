package rng

import (
	"math/rand"
	"testing"
	"time"
)

// TestMatchesStdlib verifies the counted source reproduces the standard
// source's sequence bit for bit across the mixed draw methods learners
// actually use.
func TestMatchesStdlib(t *testing.T) {
	ref := rand.New(rand.NewSource(42))
	got, _ := New(42)
	for i := 0; i < 1000; i++ {
		switch i % 4 {
		case 0:
			if a, b := ref.Int63(), got.Int63(); a != b {
				t.Fatalf("Int63 diverged at %d: %d vs %d", i, a, b)
			}
		case 1:
			if a, b := ref.Float64(), got.Float64(); a != b {
				t.Fatalf("Float64 diverged at %d: %g vs %g", i, a, b)
			}
		case 2:
			if a, b := ref.Intn(97), got.Intn(97); a != b {
				t.Fatalf("Intn diverged at %d: %d vs %d", i, a, b)
			}
		case 3:
			if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
				t.Fatalf("NormFloat64 diverged at %d: %g vs %g", i, a, b)
			}
		}
	}
}

// TestRestoreContinuesSequence checks the core checkpoint property: a
// restored generator continues exactly where the saved one stopped.
func TestRestoreContinuesSequence(t *testing.T) {
	orig, src := New(7)
	for i := 0; i < 257; i++ {
		switch i % 3 {
		case 0:
			orig.Float64()
		case 1:
			orig.Intn(13)
		default:
			orig.NormFloat64()
		}
	}
	st := src.State()
	resumed, rsrc := Restore(st)
	if rsrc.State() != st {
		t.Fatalf("restored state %+v, want %+v", rsrc.State(), st)
	}
	for i := 0; i < 500; i++ {
		if a, b := orig.Float64(), resumed.Float64(); a != b {
			t.Fatalf("restored sequence diverged at %d: %g vs %g", i, a, b)
		}
	}
}

// TestSeedResetsCount verifies Seed restarts the draw count so a reused
// generator checkpoints correctly.
func TestSeedResetsCount(t *testing.T) {
	r, src := New(1)
	r.Float64()
	src.Seed(9)
	if st := src.State(); st.Seed != 9 || st.Draws != 0 {
		t.Fatalf("after Seed: %+v", st)
	}
	a := r.Float64()
	b := rand.New(rand.NewSource(9)).Float64()
	if a != b {
		t.Fatalf("reseeded draw %g, want %g", a, b)
	}
}

// TestRestoreIsLazy checks that Restore does no replay work: a state
// that would take hours to replay restores at once and reports itself
// back unchanged.
func TestRestoreIsLazy(t *testing.T) {
	st := State{Seed: 3, Draws: 1 << 40}
	done := make(chan State, 1)
	go func() {
		_, src := Restore(st)
		done <- src.State()
	}()
	select {
	case got := <-done:
		if got != st {
			t.Fatalf("restored state %+v, want %+v", got, st)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Restore of 2^40 draws did not return promptly: it replays eagerly")
	}
}

// eagerRestore is the reference a lazy restore must match: seed, replay
// the counted draws, then hand out the generator.
func eagerRestore(st State) *rand.Rand {
	src := rand.NewSource(st.Seed).(rand.Source64)
	for i := uint64(0); i < st.Draws; i++ {
		src.Uint64()
	}
	return rand.New(src)
}

// TestLazyRestoreMatchesEagerReplay checks that the first draws after a
// lazy restore equal an eager replay, whichever draw method comes first.
func TestLazyRestoreMatchesEagerReplay(t *testing.T) {
	st := State{Seed: 11, Draws: 1234}
	for first := 0; first < 4; first++ {
		ref := eagerRestore(st)
		got, src := Restore(st)
		for i := 0; i < 200; i++ {
			switch (first + i) % 4 {
			case 0:
				if a, b := ref.Int63(), got.Int63(); a != b {
					t.Fatalf("first=%d: Int63 diverged at %d: %d vs %d", first, i, a, b)
				}
			case 1:
				if a, b := ref.Uint64(), got.Uint64(); a != b {
					t.Fatalf("first=%d: Uint64 diverged at %d: %d vs %d", first, i, a, b)
				}
			case 2:
				if a, b := ref.Float64(), got.Float64(); a != b {
					t.Fatalf("first=%d: Float64 diverged at %d: %g vs %g", first, i, a, b)
				}
			case 3:
				if a, b := ref.NormFloat64(), got.NormFloat64(); a != b {
					t.Fatalf("first=%d: NormFloat64 diverged at %d: %g vs %g", first, i, a, b)
				}
			}
		}
		if src.State().Draws <= st.Draws {
			t.Fatalf("first=%d: draw count %d did not advance past %d", first, src.State().Draws, st.Draws)
		}
		if _, ok := src.src.(*pending); ok {
			t.Fatalf("first=%d: draws still reach the pending replay after the first one", first)
		}
	}
}

// TestSeedBeforeReplay verifies Seed on a restored source that has not
// replayed yet drops the pending replay and restarts from the new seed.
func TestSeedBeforeReplay(t *testing.T) {
	r, src := Restore(State{Seed: 5, Draws: 1 << 40})
	src.Seed(9)
	if st := src.State(); st.Seed != 9 || st.Draws != 0 {
		t.Fatalf("after Seed: %+v", st)
	}
	ref := rand.New(rand.NewSource(9))
	for i := 0; i < 100; i++ {
		if a, b := ref.Float64(), r.Float64(); a != b {
			t.Fatalf("reseeded draw %d: %g, want %g", i, b, a)
		}
	}
	if st := src.State(); st.Draws != 100 {
		t.Fatalf("draw count after 100 draws: %d", st.Draws)
	}
}
