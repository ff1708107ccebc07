package pool

import (
	"sync/atomic"
	"testing"
)

// counter records how often each part ran.
type counter struct{ runs []atomic.Int32 }

func (c *counter) Part(i int) { c.runs[i].Add(1) }

func TestRunRunsEachPartOnce(t *testing.T) {
	var g Group
	for parts := 0; parts <= 9; parts++ {
		c := &counter{runs: make([]atomic.Int32, parts)}
		for rep := 0; rep < 50; rep++ {
			g.Run(c, parts)
		}
		for i := range c.runs {
			if got := c.runs[i].Load(); got != 50 {
				t.Fatalf("parts=%d: part %d ran %d times in 50 calls, want 50", parts, i, got)
			}
		}
	}
}

// nested fans out again from inside every part, so at most one level has
// idle helpers; the inner calls must fall back to inline execution
// instead of blocking.
type nested struct {
	groups []Group
	inner  []*counter
}

func (n *nested) Part(i int) { n.groups[i].Run(n.inner[i], 4) }

func TestNestedRunCompletes(t *testing.T) {
	const outer = 5
	n := &nested{groups: make([]Group, outer), inner: make([]*counter, outer)}
	for i := range n.inner {
		n.inner[i] = &counter{runs: make([]atomic.Int32, 4)}
	}
	var g Group
	for rep := 0; rep < 20; rep++ {
		g.Run(n, outer)
	}
	for i, c := range n.inner {
		for p := range c.runs {
			if got := c.runs[p].Load(); got != 20 {
				t.Fatalf("outer part %d, inner part %d ran %d times, want 20", i, p, got)
			}
		}
	}
}

// blocker parks every part until released.
type blocker struct{ release chan struct{} }

func (b *blocker) Part(int) { <-b.release }

// recorder logs the parts it ran; it is unsynchronised, so the race
// detector flags any part that did not run on the calling goroutine.
type recorder struct{ order []int }

func (r *recorder) Part(i int) { r.order = append(r.order, i) }

func TestBusyHelpersRunPartsInline(t *testing.T) {
	h := Helpers()
	b := &blocker{release: make(chan struct{})}
	done := make(chan struct{}, h)
	// A blocking send completes only into a helper, so after h of them
	// every helper is parked.
	for i := 0; i < h; i++ {
		jobs <- job{task: b, part: i, done: done}
	}
	// A Run now must return without waiting for a helper, having run
	// every part on this goroutine.
	r := &recorder{}
	var g Group
	g.Run(r, 4)
	close(b.release)
	for i := 0; i < h; i++ {
		<-done
	}
	seen := map[int]bool{}
	for _, p := range r.order {
		seen[p] = true
	}
	if len(r.order) != 4 || len(seen) != 4 {
		t.Fatalf("ran parts %v, want each of 0..3 once", r.order)
	}
}

func TestRunZeroAllocs(t *testing.T) {
	c := &counter{runs: make([]atomic.Int32, 4)}
	var g Group
	g.Run(c, 4) // grow the completion channel
	if avg := testing.AllocsPerRun(200, func() { g.Run(c, 4) }); avg != 0 {
		t.Fatalf("Run allocates %.2f allocs/op, want 0", avg)
	}
}

func TestEachVisitsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{-1, 0, 1, 2, 3, 16} {
		for _, n := range []int{0, 1, 2, 7, 40} {
			seen := make([]atomic.Int32, n)
			Each(workers, n, func(i int) { seen[i].Add(1) })
			for i := range seen {
				if got := seen[i].Load(); got != 1 {
					t.Fatalf("workers=%d n=%d: index %d ran %d times, want 1", workers, n, i, got)
				}
			}
		}
	}
	// One worker runs in index order on the caller.
	var order []int
	Each(1, 5, func(i int) { order = append(order, i) })
	for i, v := range order {
		if v != i {
			t.Fatalf("sequential order %v", order)
		}
	}
}
