package hoeffding

import (
	"math/rand"
	"sort"

	"repro/internal/attrobs"
	"repro/internal/pool"
	"repro/internal/stream"
)

// Scratch is the per-tree reusable workspace of the Hoeffding-family
// learn path, shared by every NodeStats of one tree (VFDT, HT-Ada main +
// alternates, EFDT). It supplies the identity feature set of nodes
// without a subspace, the subspace sampling pool, the threshold-scan
// branch buffers and the NBA observe-time Naive Bayes scoring buffer, so
// steady-state LearnOne runs at 0 allocs/op.
//
// Only the single-writer Learn path touches a Scratch — the read-side
// Predict/Proba paths never do — which keeps a Scorer's concurrent reads
// safe. Every tree (including every ensemble member) must own its own
// Scratch; sharing one across trees that learn in parallel is a data
// race.
type Scratch struct {
	all     []int // identity feature set [0..m)
	perm    []int // subspace sampling pool
	scan    *attrobs.ScanBuf
	logPost []float64 // NBA observe-time NB log-posteriors

	// The split scan (see scanGate): per-part scan buffers (part 0 uses
	// scan), per-feature results in feature-set order, and the pool task
	// and group.
	numClasses, maxCard int
	partScans           []*attrobs.ScanBuf
	results             []featureSplit
	task                scanTask
	group               pool.Group
}

// NewScratch returns a workspace for trees over the schema.
func NewScratch(schema stream.Schema) *Scratch {
	all := make([]int, schema.NumFeatures)
	for j := range all {
		all[j] = j
	}
	sc := &Scratch{
		all:        all,
		perm:       make([]int, schema.NumFeatures),
		logPost:    make([]float64, schema.NumClasses),
		results:    make([]featureSplit, schema.NumFeatures),
		numClasses: schema.NumClasses,
	}
	for j := 0; j < schema.NumFeatures; j++ {
		sc.maxCard = max(sc.maxCard, schema.Cardinality(j))
	}
	sc.scan = sc.newScanBuf()
	sc.partScans = []*attrobs.ScanBuf{sc.scan}
	return sc
}

func (sc *Scratch) newScanBuf() *attrobs.ScanBuf {
	b := attrobs.NewScanBuf(sc.numClasses)
	if sc.maxCard > 0 {
		b.ReserveLevels(sc.maxCard)
	}
	return b
}

// sampleSubspace draws a sorted random k-subset of the m features via a
// partial Fisher-Yates shuffle over the reusable pool. Only the returned
// per-node slice (which must persist for the node's lifetime) is
// allocated — node creation is a structural event, off the steady-state
// path.
func (sc *Scratch) sampleSubspace(rng *rand.Rand, m, k int) []int {
	copy(sc.perm, sc.all)
	out := make([]int, k)
	for i := 0; i < k; i++ {
		j := i + rng.Intn(m-i)
		sc.perm[i], sc.perm[j] = sc.perm[j], sc.perm[i]
		out[i] = sc.perm[i]
	}
	sort.Ints(out)
	return out
}
