// Package pool is the process-wide worker pool behind every in-process
// fan-out of the learners: the attribute-parallel split scans of the DMT
// and the Hoeffding trees, the ensemble members and the racer arms.
//
// The pool holds GOMAXPROCS-1 helper goroutines, started on first use.
// A call hands a part of its work to a helper only if one is idle at that
// moment (a non-blocking send); every other part runs on the calling
// goroutine. A caller therefore never waits for a helper to become free,
// so nested fan-outs — an ensemble member's tree scanning its split
// candidates inside a member part, say — degrade to inline execution
// instead of blocking or deadlocking. Parts must touch disjoint state;
// that is also what makes every fan-out byte-identical to running its
// parts in sequence.
package pool

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Task is work split into parts. Part(i) runs part i; different parts may
// run concurrently and must not share mutable state.
type Task interface {
	Part(i int)
}

type job struct {
	task Task
	part int
	done chan<- struct{}
}

var (
	startOnce sync.Once
	jobs      chan job
	helpers   int
)

func start() {
	startOnce.Do(func() {
		helpers = runtime.GOMAXPROCS(0) - 1
		jobs = make(chan job) // unbuffered: a send succeeds only into an idle helper
		for h := 0; h < helpers; h++ {
			go func() {
				for j := range jobs {
					j.task.Part(j.part)
					j.done <- struct{}{}
				}
			}()
		}
	})
}

// Helpers returns the number of helper goroutines (GOMAXPROCS-1 at first
// use). Parts beyond Helpers()+1 can never run concurrently.
func Helpers() int {
	start()
	return helpers
}

// Group issues fan-outs from one goroutine at a time. It owns the
// completion channel of its calls, so once the channel has grown to the
// largest part count seen, Run allocates nothing. The zero value is ready
// to use.
type Group struct {
	done chan struct{}
}

// Run runs task.Part(i) for every i in [0, parts) and returns when all
// have finished. Parts 1.. are offered to idle helpers in order; a part
// no helper takes runs on the caller at once, and part 0 runs on the
// caller after the others have been handed out.
func (g *Group) Run(task Task, parts int) {
	if parts <= 0 {
		return
	}
	start()
	if parts == 1 || helpers == 0 {
		for i := 0; i < parts; i++ {
			task.Part(i)
		}
		return
	}
	if cap(g.done) < parts-1 {
		g.done = make(chan struct{}, parts-1)
	}
	sent := 0
	for i := 1; i < parts; i++ {
		select {
		case jobs <- job{task: task, part: i, done: g.done}:
			sent++
		default:
			task.Part(i)
		}
	}
	task.Part(0)
	for ; sent > 0; sent-- {
		<-g.done
	}
}

// each is the Task of Each: every part claims indices from a shared
// counter until none are left.
type each struct {
	next atomic.Int64
	n    int64
	fn   func(int)
}

func (e *each) Part(int) {
	for {
		i := e.next.Add(1) - 1
		if i >= e.n {
			return
		}
		e.fn(int(i))
	}
}

// Each runs fn(i) for every i in [0, n) in at most workers parts on the
// pool. workers <= 0 means as many parts as the pool can run at once;
// workers == 1 (or n == 1) runs fn in index order on the caller. Indices
// are claimed dynamically, so fn must touch disjoint state per index.
func Each(workers, n int, fn func(int)) {
	if workers <= 0 {
		workers = Helpers() + 1
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	e := &each{n: int64(n), fn: fn}
	var g Group
	g.Run(e, workers)
}
