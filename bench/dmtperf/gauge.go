package main

import (
	"math"
	"math/rand"
	"runtime"
	"time"
)

// The benchmark runs on a few cores of a shared machine whose speed
// moves with its neighbours' load: on the 2-core host the prequential
// rate of every learner on every stream rose and fell together by up to
// 45% from one run to the next, with CPU time tracking wall time (no
// steal). Wall times of CPU-bound work then measure the host as much as
// the program.
//
// Those timings are therefore reported at a reference host speed. A
// gauge times a fixed kernel that belongs to the benchmark and never
// calls the program, right before and right after each timed section,
// and the section's times are multiplied by the host's speed around it:
// refStep over the mean of the two samples. A slower host stretches the
// kernel and the section alike and the scaled time stays, while a
// change to the program moves the scaled time exactly as it moves the
// wall time. On twelve preq-narrow runs the spread of rows/s fell from
// 19% to 4.6% this way; scaling the whole run by its median sample left
// 14%.
//
// The kernel has the character of prequential learning: a sequential
// read of rows, routing through a depth-10 tree, a logistic update at the
// leaf, and a hashed counter update over 4 MB.

const (
	refWidth  = 8
	refRows   = 1 << 17 // 8 MB of rows
	refDepth  = 10
	refCounts = 1 << 20 // 4 MB of counters
	refBatch  = 4096    // rows of one step
	refReps   = 32      // steps of one sample; the sample is their median

	// refStep is the reference speed: one kernel step's time on the
	// 2-core host in a calm hour. Scaled times read as wall times on a
	// host that runs the kernel this fast.
	refStep = 750 * time.Microsecond
)

type gauge struct {
	rows    []float64
	feat    []int32
	thr     []float64
	w       []float64
	counts  []uint32
	pos     int
	sink    float64
	steps   []float64 // ns per step of the sample in progress
	samples []float64 // ns per step
}

func newGauge() *gauge {
	rng := rand.New(rand.NewSource(1))
	g := &gauge{
		rows:   make([]float64, refRows*refWidth),
		feat:   make([]int32, 1<<refDepth),
		thr:    make([]float64, 1<<refDepth),
		w:      make([]float64, (1<<refDepth)*refWidth),
		counts: make([]uint32, refCounts),
		steps:  make([]float64, refReps),
	}
	for i := range g.rows {
		g.rows[i] = rng.Float64()
	}
	for i := range g.feat {
		g.feat[i] = int32(rng.Intn(refWidth))
		g.thr[i] = rng.Float64()
	}
	// Touch every page once, so that no sample pays for first touches.
	for i := 0; i < refRows/refBatch; i++ {
		g.step()
	}
	return g
}

// step runs the kernel over refBatch rows.
func (g *gauge) step() {
	for r := 0; r < refBatch; r++ {
		x := g.rows[g.pos*refWidth : (g.pos+1)*refWidth : (g.pos+1)*refWidth]
		g.pos = (g.pos + 1) % refRows
		n := 1
		for d := 0; d < refDepth; d++ {
			if x[g.feat[n]] > g.thr[n] {
				n = 2*n + 1
			} else {
				n = 2 * n
			}
		}
		leaf := n - 1<<refDepth
		w := g.w[leaf*refWidth : (leaf+1)*refWidth : (leaf+1)*refWidth]
		var z float64
		for j, v := range x {
			z += w[j] * v
		}
		p := 1 / (1 + math.Exp(-z))
		y := 0.0
		if x[0] > 0.5 {
			y = 1
		}
		for j, v := range x {
			w[j] -= 0.01 * (p - y) * v
		}
		g.counts[(math.Float64bits(x[1])*0x9E3779B97F4A7C15)>>44]++
		g.sink += p
	}
}

// sample times the kernel: the median of refReps steps.
func (g *gauge) sample() float64 {
	for i := range g.steps {
		start := time.Now()
		g.step()
		g.steps[i] = float64(time.Since(start))
	}
	s := median(g.steps)
	g.samples = append(g.samples, s)
	return s
}

// timed runs f between the latest sample, which must directly precede
// it, and a new one. It returns f's wall time and the host's speed
// around it, as a share of the reference speed: a time taken in f,
// multiplied by it, reads as the reference host's.
//
// Before f it collects the garbage the last section left, so that each
// section starts from the same heap and no collector cycle it did not
// cause runs inside it. The collection comes after the sample and not
// before: samples taken right after a forced collection spread 2.5
// times as wide from one to the next as samples taken after work.
func (g *gauge) timed(f func() error) (wall time.Duration, speed float64, err error) {
	before := g.samples[len(g.samples)-1]
	runtime.GC()
	start := time.Now()
	err = f()
	wall = time.Since(start)
	return wall, 2 * float64(refStep) / (before + g.sample()), err
}

// speed is the host's speed over all samples so far, as a share of the
// reference speed.
func (g *gauge) speed() float64 {
	return float64(refStep) / median(g.samples)
}
