package attrobs

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/split"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestGaussianObserverFindsSeparator(t *testing.T) {
	obs := NewGaussian(2, 10)
	rng := rand.New(rand.NewSource(1))
	// class 0 around 0.2, class 1 around 0.8
	for i := 0; i < 5000; i++ {
		obs.Observe(0.2+0.05*rng.NormFloat64(), 0, 1)
		obs.Observe(0.8+0.05*rng.NormFloat64(), 1, 1)
	}
	merit := func(post [][]float64) float64 {
		pre := []float64{obs.ClassWeight(0), obs.ClassWeight(1)}
		return (split.InfoGain{}).Merit(pre, post)
	}
	cand, ok := obs.BestSplit(3, merit)
	if !ok {
		t.Fatal("no split found on separable data")
	}
	if cand.Feature != 3 {
		t.Fatalf("feature = %d", cand.Feature)
	}
	if cand.Threshold < 0.3 || cand.Threshold > 0.7 {
		t.Fatalf("threshold = %v, want between the clusters", cand.Threshold)
	}
	if cand.Merit < 0.9 {
		t.Fatalf("merit = %v, want near 1", cand.Merit)
	}
	// Branch distributions: left mostly class 0, right mostly class 1.
	if cand.Post[0][0] < cand.Post[0][1] || cand.Post[1][1] < cand.Post[1][0] {
		t.Fatalf("post distributions wrong: %v", cand.Post)
	}
}

// BestThreshold hoists the pre-split impurity out of its loop; the merit
// it reports must keep the exact bits of scoring each threshold with
// Merit (MeritAt), for both criteria.
func TestBestThresholdMatchesPerThresholdMerit(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, crit := range []split.Criterion{split.InfoGain{}, split.GiniGain{}} {
		for trial := 0; trial < 20; trial++ {
			const c = 5
			obs := NewGaussian(c, 10)
			pre := make([]float64, c)
			for i := 0; i < 200; i++ {
				y := rng.Intn(c)
				obs.Observe(rng.NormFloat64()+float64(y)*0.3, y, 1)
				pre[y]++
			}
			buf := NewScanBuf(c)
			thr, merit, ok := obs.BestThreshold(pre, crit, buf)
			if !ok {
				t.Fatal("no threshold on spread data")
			}
			best, bestT := math.Inf(-1), 0.0
			step := (obs.max - obs.min) / float64(obs.bins+1)
			for i := 1; i <= obs.bins; i++ {
				th := obs.min + step*float64(i)
				if m := obs.MeritAt(th, pre, crit, buf); m > best {
					best, bestT = m, th
				}
			}
			if merit != best || thr != bestT {
				t.Fatalf("%s: BestThreshold (%v, %v), per-threshold Merit (%v, %v)", crit.Name(), thr, merit, bestT, best)
			}
		}
	}
}

func TestGaussianObserverNoSpread(t *testing.T) {
	obs := NewGaussian(2, 10)
	for i := 0; i < 100; i++ {
		obs.Observe(0.5, i%2, 1)
	}
	if _, ok := obs.BestSplit(0, func([][]float64) float64 { return 1 }); ok {
		t.Fatal("constant feature must yield no split")
	}
	empty := NewGaussian(2, 10)
	if _, ok := empty.BestSplit(0, func([][]float64) float64 { return 1 }); ok {
		t.Fatal("empty observer must yield no split")
	}
}

func TestGaussianObserverIgnoresBadInput(t *testing.T) {
	obs := NewGaussian(2, 10)
	obs.Observe(math.NaN(), 0, 1)
	obs.Observe(math.Inf(1), 1, 1)
	obs.Observe(0.5, -1, 1)
	obs.Observe(0.5, 99, 1)
	if obs.ClassWeight(0) != 0 || obs.ClassWeight(1) != 0 {
		t.Fatal("bad observations were recorded")
	}
	if obs.ClassWeight(-5) != 0 {
		t.Fatal("out-of-range class weight")
	}
}

func TestGaussianDistributionsAtConservation(t *testing.T) {
	obs := NewGaussian(3, 10)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 3000; i++ {
		obs.Observe(rng.Float64(), rng.Intn(3), 1)
	}
	left, right := obs.DistributionsAt(0.5)
	for k := 0; k < 3; k++ {
		if !almostEq(left[k]+right[k], obs.ClassWeight(k), 1e-9) {
			t.Fatalf("class %d mass not conserved: %v + %v != %v", k, left[k], right[k], obs.ClassWeight(k))
		}
	}
}

func TestGaussianPdfFallback(t *testing.T) {
	obs := NewGaussian(2, 10)
	if obs.Pdf(0.5, 0) != 1 {
		t.Fatal("empty class Pdf should be uninformative (1)")
	}
}

// bruteForceSDR computes the best SDR split by sorting the raw data.
func bruteForceSDR(values, targets []float64) (bestThreshold, bestSDR float64) {
	type pair struct{ v, t float64 }
	pairs := make([]pair, len(values))
	for i := range values {
		pairs[i] = pair{values[i], targets[i]}
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].v < pairs[j].v })
	var total split.TargetStats
	for _, p := range pairs {
		total.Add(p.t, 1)
	}
	bestSDR = math.Inf(-1)
	var left split.TargetStats
	for i := 0; i < len(pairs); i++ {
		left.Add(pairs[i].t, 1)
		if i+1 < len(pairs) && pairs[i+1].v == pairs[i].v {
			continue // threshold must sit at the last duplicate
		}
		right := total.Sub(left)
		if left.N < 1 || right.N < 1 {
			continue
		}
		if sdr := split.SDR(total, left, right); sdr > bestSDR {
			bestSDR = sdr
			bestThreshold = pairs[i].v
		}
	}
	return bestThreshold, bestSDR
}

// Property: the E-BST reproduces the brute-force best SDR split exactly
// when its capacity is not exceeded.
func TestEBSTMatchesBruteForce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		values := make([]float64, n)
		targets := make([]float64, n)
		tree := NewEBST(1024)
		var total split.TargetStats
		for i := 0; i < n; i++ {
			values[i] = math.Round(rng.Float64()*20) / 20 // force duplicates
			targets[i] = rng.NormFloat64()
			tree.Observe(values[i], targets[i], 1)
			total.Add(targets[i], 1)
		}
		bestT, bestSDR := bruteForceSDR(values, targets)
		cand, _, ok := tree.BestSDRSplit(0, total)
		if !ok {
			return bestSDR == math.Inf(-1)
		}
		return almostEq(cand.Merit, bestSDR, 1e-9) && cand.Threshold == bestT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestEBSTCapacityBound(t *testing.T) {
	tree := NewEBST(16)
	rng := rand.New(rand.NewSource(3))
	var total split.TargetStats
	for i := 0; i < 10000; i++ {
		v := rng.Float64()
		tree.Observe(v, v, 1)
		total.Add(v, 1)
	}
	if tree.Size() > 16 {
		t.Fatalf("E-BST grew to %d nodes, cap 16", tree.Size())
	}
	// Splits must still be available and sane.
	cand, _, ok := tree.BestSDRSplit(0, total)
	if !ok {
		t.Fatal("capped tree found no split")
	}
	if cand.Merit <= 0 {
		t.Fatalf("capped tree merit = %v", cand.Merit)
	}
}

func TestEBSTIgnoresNonFinite(t *testing.T) {
	tree := NewEBST(16)
	tree.Observe(math.NaN(), 1, 1)
	tree.Observe(math.Inf(-1), 1, 1)
	if tree.Size() != 0 {
		t.Fatal("non-finite values stored")
	}
}

func TestEBSTTooFewObservations(t *testing.T) {
	tree := NewEBST(16)
	tree.Observe(0.5, 1, 1)
	var total split.TargetStats
	total.Add(1, 1)
	if _, _, ok := tree.BestSDRSplit(0, total); ok {
		t.Fatal("single observation cannot split")
	}
}

func TestEBSTMinCapacityFloor(t *testing.T) {
	tree := NewEBST(1)
	if tree.maxNodes < 16 {
		t.Fatalf("capacity floor = %d", tree.maxNodes)
	}
}

// With a single valid threshold the runner-up must stay the -Inf
// sentinel: FIMT-DD's split guard distinguishes "no runner-up exists"
// (tie-condition only) from a genuine runner-up with zero or negative
// merit (ratio test), so BestSDRSplit must not remap it.
func TestBestSDRSplitRunnerUpSentinel(t *testing.T) {
	tree := NewEBST(64)
	var total split.TargetStats
	for _, obs := range []struct{ v, y float64 }{{0, 0}, {0, 0}, {1, 1}, {1, 1}} {
		tree.Observe(obs.v, obs.y, 1)
		total.Add(obs.y, 1)
	}
	cand, second, ok := tree.BestSDRSplit(0, total)
	if !ok {
		t.Fatal("no candidate found")
	}
	if cand.Threshold != 0 {
		t.Fatalf("threshold = %v, want 0 (the only valid split)", cand.Threshold)
	}
	if !math.IsInf(second, -1) {
		t.Fatalf("second = %v, want the -Inf no-runner-up sentinel", second)
	}
}
