package stream

import (
	"context"
	"errors"
	"testing"
)

// seqMemory is a Memory over n rows whose cells record their row index.
func seqMemory(n int) *Memory {
	b := Batch{X: make([][]float64, n), Y: make([]int, n)}
	for i := range b.X {
		b.X[i] = []float64{float64(i), float64(-i), 0.5}
		b.Y[i] = i % 2
	}
	return NewMemory(testSchema(), b)
}

// sameRows reports whether got shares rows [lo, lo+got.Len()) of the
// stream's backing batch, row slices and labels alike.
func sameRows(m *Memory, got Batch, lo int) bool {
	for i := range got.X {
		if &got.X[i][0] != &m.data.X[lo+i][0] || got.Y[i] != m.data.Y[lo+i] {
			return false
		}
	}
	return true
}

// Batches drawn from a Memory tile [0, Len) in order, short last batch
// included, as views of the backing rows; then the stream reports ErrEnd.
func TestMemoryBatchesTile(t *testing.T) {
	m := seqMemory(10)
	lo := 0
	for _, want := range []int{3, 3, 3, 1} {
		b, err := NextBatch(m, 3)
		if err != nil || b.Len() != want || len(b.X) != want {
			t.Fatalf("batch at row %d: %d rows, %v; want %d", lo, b.Len(), err, want)
		}
		if !sameRows(m, b, lo) {
			t.Fatalf("batch at row %d is not a view of rows [%d, %d)", lo, lo, lo+want)
		}
		lo += want
	}
	for i := 0; i < 2; i++ {
		if b, err := NextBatch(m, 3); !errors.Is(err, ErrEnd) || b.Len() != 0 {
			t.Fatalf("past the end: %d rows, %v; want ErrEnd", b.Len(), err)
		}
	}
}

// n <= 0 and a done context both return without advancing the stream.
func TestMemoryBatchEdges(t *testing.T) {
	m := seqMemory(5)
	for _, n := range []int{0, -1} {
		if b, err := NextBatch(m, n); !errors.Is(err, ErrEnd) || b.Len() != 0 {
			t.Fatalf("n=%d: %d rows, %v; want ErrEnd", n, b.Len(), err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if b, err := NextBatchContext(ctx, m, 2); !errors.Is(err, context.Canceled) || b.Len() != 0 {
		t.Fatalf("cancelled: %d rows, %v; want context.Canceled", b.Len(), err)
	}
	b, err := NextBatch(m, 2)
	if err != nil || !sameRows(m, b, 0) {
		t.Fatalf("after the edge cases the stream advanced: %v, %v", b.Y, err)
	}
}

// Reset replays the same views.
func TestMemoryBatchReset(t *testing.T) {
	m := seqMemory(7)
	var first []Batch
	for {
		b, err := NextBatch(m, 4)
		if errors.Is(err, ErrEnd) {
			break
		}
		first = append(first, b)
	}
	m.Reset()
	lo := 0
	for i, want := range first {
		b, err := NextBatch(m, 4)
		if err != nil || b.Len() != want.Len() || !sameRows(m, b, lo) {
			t.Fatalf("replayed batch %d differs: %d rows, %v", i, b.Len(), err)
		}
		lo += b.Len()
	}
}

// Next keeps handing out a private copy, also between batch views.
func TestMemoryNextCopiesBetweenViews(t *testing.T) {
	m := seqMemory(4)
	if _, err := NextBatch(m, 1); err != nil {
		t.Fatal(err)
	}
	inst, err := m.Next()
	if err != nil || inst.X[0] != 1 {
		t.Fatalf("Next after one view = %v, %v; want row 1", inst.X, err)
	}
	inst.X[0] = 99
	if m.data.X[1][0] != 1 {
		t.Fatal("Next handed out the stream's own row")
	}
	if b, err := NextBatch(m, 5); err != nil || !sameRows(m, b, 2) {
		t.Fatalf("view after Next does not start at row 2: %v, %v", b.Y, err)
	}
}

// An append to a slice of a batch, or to a Memory batch, reallocates:
// the parent's rows and the stream's next batch are untouched.
func TestBatchAppendDoesNotClobber(t *testing.T) {
	parent := testBatch()
	s := parent.Slice(0, 1)
	s.X = append(s.X, []float64{-1, -1, -1})
	s.Y = append(s.Y, 9)
	if parent.X[1][0] != 0.4 || parent.Y[1] != 1 {
		t.Fatalf("append to a Slice overwrote the parent's row 1: %v, %d", parent.X[1], parent.Y[1])
	}

	m := seqMemory(6)
	b, err := NextBatch(m, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.X = append(b.X, []float64{-1, -1, -1})
	b.Y = append(b.Y, 9)
	next, err := NextBatch(m, 3)
	if err != nil || !sameRows(m, next, 3) || next.X[0][0] != 3 || next.Y[0] != 1 {
		t.Fatalf("append to a Memory batch overwrote the next batch: %v, %v", next.Y, err)
	}
}

// Drawing a batch from a Memory allocates nothing.
func TestMemoryBatchZeroAllocs(t *testing.T) {
	m := seqMemory(64)
	ctx := context.Background()
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := NextBatchContext(ctx, m, 8); errors.Is(err, ErrEnd) {
			m.Reset()
		}
	})
	if allocs != 0 {
		t.Fatalf("NextBatchContext on a Memory allocated %.1f times per batch", allocs)
	}
}
