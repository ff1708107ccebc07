// Package synth implements the data stream generators of the paper's
// evaluation (Section VI-B): faithful re-implementations of the
// scikit-multiflow SEA, Agrawal and Hyperplane generators with the drift
// schedules and 10% perturbation the paper specifies, plus a configurable
// Gaussian-cluster generator used to build surrogates for the real-world
// data sets the repository does not ship (see the package doc of
// internal/datasets). All generators emit features normalised to [0, 1] and
// replay identically after Reset (fixed seeds).
package synth

import (
	"math/rand"

	"repro/internal/stream"
)

// seaThresholds are the classic SEA concept thresholds on f1+f2 (features
// in [0,10]); the stream cycles through them at each abrupt drift.
var seaThresholds = []float64{8, 9, 7, 9.5}

// SEA is the SEA generator: three uniform features in [0,10] (emitted
// normalised to [0,1]); the label is 1 when f1+f2 <= theta. Theta changes
// abruptly at fixed positions — the paper uses drifts at 200k, 400k, 600k
// and 800k of a 1M stream — and labels are flipped with the noise
// probability (paper: 0.1).
type SEA struct {
	seed    int64
	samples int
	noise   float64
	drifts  int // number of equal-length segments = drifts+1

	rng *rand.Rand
	pos int
}

// NewSEA returns a SEA stream of the given length with four abrupt drifts
// (five segments) and the given label-noise probability.
func NewSEA(samples int, noise float64, seed int64) *SEA {
	if samples <= 0 {
		samples = 1_000_000
	}
	s := &SEA{seed: seed, samples: samples, noise: noise, drifts: 4}
	s.Reset()
	return s
}

// Schema implements stream.Stream.
func (s *SEA) Schema() stream.Schema {
	return stream.Schema{
		NumFeatures:  3,
		NumClasses:   2,
		Name:         "SEA",
		FeatureNames: []string{"f1", "f2", "f3"},
	}
}

// Len implements stream.Sized.
func (s *SEA) Len() int { return s.samples }

// Reset implements stream.Stream.
func (s *SEA) Reset() {
	s.rng = rand.New(rand.NewSource(s.seed))
	s.pos = 0
}

// DriftPositions returns the instance indices at which the concept
// changes.
func (s *SEA) DriftPositions() []int {
	seg := s.samples / (s.drifts + 1)
	out := make([]int, s.drifts)
	for i := range out {
		out[i] = seg * (i + 1)
	}
	return out
}

// Next implements stream.Stream.
func (s *SEA) Next() (stream.Instance, error) {
	if s.pos >= s.samples {
		return stream.Instance{}, stream.ErrEnd
	}
	seg := s.samples / (s.drifts + 1)
	concept := s.pos / seg
	if concept > s.drifts {
		concept = s.drifts
	}
	theta := seaThresholds[concept%len(seaThresholds)]

	f1 := s.rng.Float64() * 10
	f2 := s.rng.Float64() * 10
	f3 := s.rng.Float64() * 10
	y := 0
	if f1+f2 <= theta {
		y = 1
	}
	if s.noise > 0 && s.rng.Float64() < s.noise {
		y = 1 - y
	}
	s.pos++
	return stream.Instance{X: []float64{f1 / 10, f2 / 10, f3 / 10}, Y: y}, nil
}
