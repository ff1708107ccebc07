package model

import "testing"

// The counting rules validated against actual paper table entries.
func TestTreeComplexityPaperExamples(t *testing.T) {
	// Poker/DMT (Table III/IV): root-only softmax tree, c=9, m=10:
	// 9 splits, (9-1)*10 = 80 parameters.
	comp := TreeComplexity(0, 1, 0, LeafModel, 10, 9)
	if comp.Splits != 9 {
		t.Fatalf("Poker-shape splits = %v, want 9", comp.Splits)
	}
	if comp.Params != 80 {
		t.Fatalf("Poker-shape params = %v, want 80", comp.Params)
	}

	// SEA/FIMT-DD (Table III/IV): a root-only binary model tree with m=3
	// counts 1 split and 3 parameters (paper: 1.0 splits, 3 params).
	comp = TreeComplexity(0, 1, 0, LeafModel, 3, 2)
	if comp.Splits != 1 || comp.Params != 3 {
		t.Fatalf("SEA-shape = %+v, want splits 1, params 3", comp)
	}
}

func TestTreeComplexityMajority(t *testing.T) {
	// MC tree: 5 inner, 6 leaves -> 5 splits, 5+6 params.
	comp := TreeComplexity(5, 6, 3, LeafMajority, 10, 2)
	if comp.Splits != 5 {
		t.Fatalf("MC splits = %v", comp.Splits)
	}
	if comp.Params != 11 {
		t.Fatalf("MC params = %v", comp.Params)
	}
	if comp.Depth != 3 || comp.Inner != 5 || comp.Leaves != 6 {
		t.Fatalf("raw counts lost: %+v", comp)
	}
}

func TestTreeComplexityBinaryModelLeaves(t *testing.T) {
	// 2 inner, 3 leaves, m=8, binary: splits 2+3, params 2 + 3*8.
	comp := TreeComplexity(2, 3, 2, LeafModel, 8, 2)
	if comp.Splits != 5 {
		t.Fatalf("splits = %v, want 5", comp.Splits)
	}
	if comp.Params != 26 {
		t.Fatalf("params = %v, want 26", comp.Params)
	}
}

func TestTreeComplexityMulticlassModelLeaves(t *testing.T) {
	// 1 inner, 2 leaves, m=5, c=4: splits 1 + 2*4, params 1 + 2*(3*5).
	comp := TreeComplexity(1, 2, 1, LeafModel, 5, 4)
	if comp.Splits != 9 {
		t.Fatalf("splits = %v, want 9", comp.Splits)
	}
	if comp.Params != 31 {
		t.Fatalf("params = %v, want 31", comp.Params)
	}
}

func TestComplexityAdd(t *testing.T) {
	a := Complexity{Splits: 3, Params: 10, Inner: 1, Leaves: 2, Depth: 2}
	b := Complexity{Splits: 5, Params: 20, Inner: 2, Leaves: 3, Depth: 4}
	sum := a.Add(b)
	if sum.Splits != 8 || sum.Params != 30 || sum.Inner != 3 || sum.Leaves != 5 {
		t.Fatalf("Add = %+v", sum)
	}
	if sum.Depth != 4 {
		t.Fatalf("Add depth = %d, want max 4", sum.Depth)
	}
	// Commutative on depth in both directions.
	if b.Add(a).Depth != 4 {
		t.Fatal("Add depth asymmetric")
	}
}

// Broadcast hands out one channel per round: every waiter of a round is
// released by the next Fire, and a later Wait starts a fresh, open
// channel.
func TestBroadcastWakesWaitersOfOneRound(t *testing.T) {
	var b Broadcast
	b.Fire() // no waiters: a no-op
	w1, w2 := b.Wait(), b.Wait()
	if w1 != w2 {
		t.Fatal("two waits in one round got different channels")
	}
	select {
	case <-w1:
		t.Fatal("channel closed before Fire")
	default:
	}
	b.Fire()
	<-w1
	<-w2
	select {
	case <-b.Wait():
		t.Fatal("a wait after Fire got an already-closed channel")
	default:
	}
}

// Firing with nobody waiting must not allocate: it sits on the Learn
// path of every serving scorer.
func TestBroadcastFireZeroAllocs(t *testing.T) {
	var b Broadcast
	if avg := testing.AllocsPerRun(200, b.Fire); avg != 0 {
		t.Fatalf("Broadcast.Fire allocates %.2f allocs/op, want 0", avg)
	}
}
