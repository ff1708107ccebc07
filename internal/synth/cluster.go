package synth

import (
	"fmt"
	"math/rand"

	"repro/internal/stream"
)

// DriftKind selects the concept-drift mechanism of a Cluster stream.
type DriftKind int

const (
	// DriftNone keeps the concept stationary.
	DriftNone DriftKind = iota
	// DriftAbrupt re-draws the cluster means at each drift point.
	DriftAbrupt
	// DriftIncremental interpolates the cluster means linearly between
	// consecutive anchor concepts over the whole stream.
	DriftIncremental
	// DriftWalk applies a slow Gaussian random walk to the cluster means
	// (autocorrelated level shifts, e.g. electricity prices or sensor
	// drift).
	DriftWalk
)

// ClusterConfig parameterises a Gaussian-cluster surrogate stream: c
// classes, each represented by a few Gaussian clusters in [0,1]^m, class
// priors matching a target imbalance, and a drift schedule. The package
// doc of internal/datasets documents which real-world data set each
// configuration stands in for.
type ClusterConfig struct {
	// Name labels the stream (e.g. "Electricity*"; the asterisk marks a
	// surrogate).
	Name string
	// Samples, Features, Classes give the Table I dimensions.
	Samples  int
	Features int
	Classes  int
	// Priors are the class probabilities (length Classes, summing to ~1).
	Priors []float64
	// ClustersPerClass is the number of Gaussian modes per class
	// (default 2).
	ClustersPerClass int
	// Std is the per-dimension standard deviation of each cluster —
	// the difficulty knob (default 0.12).
	Std float64
	// LabelNoise flips the label to a random other class with this
	// probability.
	LabelNoise float64
	// Drift selects the drift mechanism; DriftPoints are fractional
	// positions in (0,1) where abrupt concepts change or incremental
	// anchors sit; WalkStd is the per-instance walk scale for DriftWalk.
	Drift       DriftKind
	DriftPoints []float64
	WalkStd     float64
	// Seed fixes the stream.
	Seed int64
}

func (c ClusterConfig) withDefaults() ClusterConfig {
	if c.ClustersPerClass <= 0 {
		c.ClustersPerClass = 2
	}
	if c.Std <= 0 {
		c.Std = 0.12
	}
	if c.Samples <= 0 {
		c.Samples = 10_000
	}
	if c.Classes < 2 {
		c.Classes = 2
	}
	if c.Features < 1 {
		c.Features = 2
	}
	if len(c.Priors) != c.Classes {
		c.Priors = UniformPriors(c.Classes)
	}
	if c.Drift == DriftWalk && c.WalkStd <= 0 {
		c.WalkStd = 0.0005
	}
	return c
}

// UniformPriors returns equal class priors.
func UniformPriors(classes int) []float64 {
	p := make([]float64, classes)
	for i := range p {
		p[i] = 1 / float64(classes)
	}
	return p
}

// MajorityPriors returns priors where class 0 holds the given share and
// the remaining classes split the rest evenly — how the surrogates match
// the Table I majority-class counts.
func MajorityPriors(classes int, majorityShare float64) []float64 {
	p := make([]float64, classes)
	p[0] = majorityShare
	rest := (1 - majorityShare) / float64(classes-1)
	for i := 1; i < classes; i++ {
		p[i] = rest
	}
	return p
}

// Cluster is the Gaussian-cluster surrogate stream.
type Cluster struct {
	cfg     ClusterConfig
	anchors [][]float64 // anchor concepts: [anchor][class*g*m] flattened means
	cum     []float64   // cumulative priors

	rng  *rand.Rand
	pos  int
	walk []float64 // current mean offsets for DriftWalk
}

// NewCluster builds the surrogate stream from its configuration.
func NewCluster(cfg ClusterConfig) *Cluster {
	cfg = cfg.withDefaults()
	c := &Cluster{cfg: cfg}

	// Anchor concepts are drawn from a dedicated RNG so the data RNG
	// (reset per replay) never disturbs them.
	anchorRng := rand.New(rand.NewSource(cfg.Seed*7919 + 17))
	numAnchors := 1
	if cfg.Drift == DriftAbrupt || cfg.Drift == DriftIncremental {
		numAnchors = len(cfg.DriftPoints) + 1
	}
	dim := cfg.Classes * cfg.ClustersPerClass * cfg.Features
	c.anchors = make([][]float64, numAnchors)
	for a := range c.anchors {
		means := make([]float64, dim)
		for i := range means {
			means[i] = 0.2 + 0.6*anchorRng.Float64()
		}
		c.anchors[a] = means
	}

	c.cum = make([]float64, cfg.Classes)
	var acc float64
	for k, p := range cfg.Priors {
		acc += p
		c.cum[k] = acc
	}
	c.Reset()
	return c
}

// Schema implements stream.Stream.
func (c *Cluster) Schema() stream.Schema {
	return stream.Schema{NumFeatures: c.cfg.Features, NumClasses: c.cfg.Classes, Name: c.cfg.Name}
}

// Len implements stream.Sized.
func (c *Cluster) Len() int { return c.cfg.Samples }

// Reset implements stream.Stream.
func (c *Cluster) Reset() {
	c.rng = rand.New(rand.NewSource(c.cfg.Seed))
	c.pos = 0
	c.walk = make([]float64, len(c.anchors[0]))
}

// meanAt returns the mean of (class, cluster, feature) at stream position
// pos under the drift schedule.
func (c *Cluster) meanAt(pos int, idx int) float64 {
	frac := float64(pos) / float64(c.cfg.Samples)
	switch c.cfg.Drift {
	case DriftAbrupt:
		seg := 0
		for _, p := range c.cfg.DriftPoints {
			if frac >= p {
				seg++
			}
		}
		return c.anchors[seg][idx]
	case DriftIncremental:
		// Piecewise-linear interpolation over the anchor positions
		// 0, p1, ..., pk, 1 (the last anchor holds from pk to the end).
		points := append(append([]float64{0}, c.cfg.DriftPoints...), 1)
		for s := 0; s < len(points)-1; s++ {
			if frac >= points[s] && frac < points[s+1] {
				a0 := c.anchors[s]
				a1 := c.anchors[minInt(s+1, len(c.anchors)-1)]
				t := (frac - points[s]) / (points[s+1] - points[s])
				return a0[idx]*(1-t) + a1[idx]*t
			}
		}
		return c.anchors[len(c.anchors)-1][idx]
	case DriftWalk:
		return c.anchors[0][idx] + c.walk[idx]
	default:
		return c.anchors[0][idx]
	}
}

// Next implements stream.Stream.
func (c *Cluster) Next() (stream.Instance, error) {
	if c.pos >= c.cfg.Samples {
		return stream.Instance{}, stream.ErrEnd
	}
	rng := c.rng

	// Draw the class from the priors, then one of its clusters.
	u := rng.Float64()
	class := 0
	for k, cp := range c.cum {
		if u <= cp {
			class = k
			break
		}
		class = k
	}
	cluster := rng.Intn(c.cfg.ClustersPerClass)
	base := (class*c.cfg.ClustersPerClass + cluster) * c.cfg.Features

	x := make([]float64, c.cfg.Features)
	for j := range x {
		mean := c.meanAt(c.pos, base+j)
		x[j] = clamp(mean+rng.NormFloat64()*c.cfg.Std, 0, 1)
	}

	y := class
	if c.cfg.LabelNoise > 0 && rng.Float64() < c.cfg.LabelNoise {
		y = rng.Intn(c.cfg.Classes)
	}

	if c.cfg.Drift == DriftWalk {
		for i := range c.walk {
			c.walk[i] += rng.NormFloat64() * c.cfg.WalkStd
			c.walk[i] = clamp(c.walk[i], -0.3, 0.3)
		}
	}
	c.pos++
	return stream.Instance{X: x, Y: y}, nil
}

// String describes the configuration.
func (c *Cluster) String() string {
	return fmt.Sprintf("Cluster{%s: n=%d, m=%d, c=%d, drift=%d}",
		c.cfg.Name, c.cfg.Samples, c.cfg.Features, c.cfg.Classes, c.cfg.Drift)
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
