package core

import (
	"sort"

	"repro/internal/pool"
)

// proposal is one candidate value drawn from the current batch, already
// inserted provisionally into the node's candidate index (so its batch
// statistics accumulate in the arena like everyone else's). admit either
// keeps it or removes it again.
type proposal struct {
	feature int32
	slot    int32
	value   float64
	gain    float64
}

// levelBufs are the reusable row partitions of one tree depth: an inner
// node at depth d routes its batch into these, and both halves stay valid
// while the subtrees (which use depths > d) are processed.
type levelBufs struct {
	leftX, rightX [][]float64
	leftY, rightY []int
}

// scratch is the per-tree reusable workspace of the Learn path. Every
// buffer grows to its high-water mark and is then reused forever, so a
// steady-state Learn call (no structural change, no new tree depth)
// performs zero allocations. It is touched only under Learn — the
// read-side Predict/Proba paths never use it, keeping Scorer's concurrent
// reads safe.
type scratch struct {
	batchGrad []float64 // the batch's summed gradient (w)

	// Per-batch row cache, filled by the first (row-major) pass over the
	// batch and consumed by the second (feature-major) bucket pass:
	// rowLoss[r] and rowGrads[r*w:(r+1)*w] hold the r-th usable row's loss
	// and gradient, cols[j*rowCap+r] its j-th feature value (column-major,
	// so the per-feature sweep streams sequentially while its small bucket
	// block stays cache-resident).
	rowLoss  []float64
	rowGrads []float64
	cols     []float64
	rowCap   int // row capacity of the cache (high-water batch size)

	// scan is the feature-major pass over the row cache, split into
	// feature ranges that run on the shared worker pool when the batch
	// is large enough (see scanGate).
	scan  scanTask
	group pool.Group

	props    []proposal // this batch's proposals
	scored   []proposal // proposals that passed the gain filter
	drop     []bool     // per arena slot: remove this entry at sweep time
	propSlot []bool     // per arena slot: slot belongs to a live proposal

	victimGain []float64 // per stored entry: lifetime gain estimate
	victimPos  []int32   // positions sorted alongside victimGain

	// Subset-scan workspace of bestCandidate: one categorical feature's
	// entry positions ranked by individual gain, and the cumulative
	// prefix gradient of the scanned level subsets.
	catOrd  []int32
	catGain []float64
	catGrad []float64 // w-wide cumulative subset gradient

	quartVals []float64 // cold-start per-feature value scratch (sorted once per feature)
	levels    []levelBufs

	propSort   propSorter
	victimSort victimSorter
	catSort    catSorter
}

func newScratch(w, slots int) *scratch {
	sc := &scratch{
		batchGrad: make([]float64, w),
		props:     make([]proposal, 0, slots),
		scored:    make([]proposal, 0, slots),
		drop:      make([]bool, slots),
		propSlot:  make([]bool, slots),
		catOrd:    make([]int32, 0, slots),
		catGain:   make([]float64, 0, slots),
		catGrad:   make([]float64, w),
	}
	sc.scan.w, sc.scan.slots = w, slots
	return sc
}

// reserveRows sizes the per-batch row cache for a batch of rows rows, m
// features and w weights. Growth sticks at the high-water mark, so a
// steady batch size allocates only once.
func (sc *scratch) reserveRows(rows, m, w int) {
	if rows <= sc.rowCap {
		return
	}
	sc.rowCap = rows
	sc.rowLoss = make([]float64, rows)
	sc.rowGrads = make([]float64, rows*w)
	sc.cols = make([]float64, rows*m)
	for i := range sc.scan.ranges {
		sc.scan.ranges[i].reserveRows(rows)
	}
}

// level returns the partition buffers of one depth, growing the ladder on
// first descent to a new depth (a structural change, so the allocation is
// off the steady-state path).
func (sc *scratch) level(depth int) *levelBufs {
	for len(sc.levels) <= depth {
		sc.levels = append(sc.levels, levelBufs{})
	}
	return &sc.levels[depth]
}

// propSorter orders proposals by batch gain descending; ties break on
// (feature, value) so admission is independent of proposal draw order.
type propSorter struct{ props []proposal }

func (s *propSorter) Len() int      { return len(s.props) }
func (s *propSorter) Swap(i, j int) { s.props[i], s.props[j] = s.props[j], s.props[i] }
func (s *propSorter) Less(i, j int) bool {
	a, b := s.props[i], s.props[j]
	if a.gain != b.gain {
		return a.gain > b.gain
	}
	if a.feature != b.feature {
		return a.feature < b.feature
	}
	return a.value < b.value
}

// sortProposals sorts via a reusable sort.Interface value, so the call
// allocates nothing (a *propSorter fits an interface word).
func (sc *scratch) sortProposals(props []proposal) {
	sc.propSort.props = props
	sort.Sort(&sc.propSort)
	sc.propSort.props = nil
}

// victimSorter orders stored-pool positions by lifetime gain ascending
// (weakest first); ties break on position for determinism.
type victimSorter struct {
	gain []float64
	pos  []int32
}

func (s *victimSorter) Len() int { return len(s.pos) }
func (s *victimSorter) Swap(i, j int) {
	s.gain[i], s.gain[j] = s.gain[j], s.gain[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}
func (s *victimSorter) Less(i, j int) bool {
	if s.gain[i] != s.gain[j] {
		return s.gain[i] < s.gain[j]
	}
	return s.pos[i] < s.pos[j]
}

func (sc *scratch) sortVictims() {
	sc.victimSort.gain = sc.victimGain
	sc.victimSort.pos = sc.victimPos
	sort.Sort(&sc.victimSort)
	sc.victimSort.gain, sc.victimSort.pos = nil, nil
}

// catSorter orders one categorical feature's entry positions by
// individual gain descending (strongest level first, the subset-scan
// prefix order); ties break on position for determinism.
type catSorter struct {
	gain []float64
	pos  []int32
}

func (s *catSorter) Len() int { return len(s.pos) }
func (s *catSorter) Swap(i, j int) {
	s.gain[i], s.gain[j] = s.gain[j], s.gain[i]
	s.pos[i], s.pos[j] = s.pos[j], s.pos[i]
}
func (s *catSorter) Less(i, j int) bool {
	if s.gain[i] != s.gain[j] {
		return s.gain[i] > s.gain[j]
	}
	return s.pos[i] < s.pos[j]
}

func (sc *scratch) sortCat() {
	sc.catSort.gain = sc.catGain
	sc.catSort.pos = sc.catOrd
	sort.Sort(&sc.catSort)
	sc.catSort.gain, sc.catSort.pos = nil, nil
}
