package core

import (
	"math"

	"repro/internal/linalg"
	"repro/internal/pool"
)

// scanGate decides whether the feature-major pass of updateStats fans out
// over the shared worker pool. The estimate of the pass's work is
// rows·m·w (the bucket gathers) plus entries·w (the arena updates); below
// minWork the pass runs inline, because waking a helper costs more than
// it saves on a small pass. Measured on a 2-vCPU host with the AVX2
// kernels, pooled over inline time per pass, median of 41 interleaved
// pairs: a 100-row batch at m = 50 (work ≈ 2^18) 1.07, 175 rows (2^18.8)
// 1.01, 250 rows (2^19.3) 0.89, 500 rows 0.81; TueEyeQ*'s 15-row batches
// at m = 76 (2^16.7) 1.03; Gas*'s 13-row batches at m = 128 (w = 645,
// 2^20.3) 1.01. The scalar kernels, measured the same way, read 1.04,
// 0.88, 0.78, 0.75, 1.04 and 0.69: the faster kernels moved the
// break-even up to between 2^18.8 and 2^19.3, so 2^19 still sits at it,
// and only Gas* fell from a gain to break-even above it. parts overrides
// the number of ranges (0: one per pool goroutine). Tests force either
// path through this variable; it is not a knob.
var scanGate = struct {
	minWork int
	parts   int
}{minWork: 1 << 19}

// scanRange is the private workspace of one feature range of the pass:
// the counting-sort buffers and the two (w+2)-wide rows [loss, count,
// gradient...] of the suffix sweep.
type scanRange struct {
	f0, f1 int // features [f0, f1)

	// ids[r] is row r's accepted-prefix length on the current feature (0
	// = no threshold accepts it), ord the row indices grouped by bucket,
	// cnts/starts/cursor the histogram and group offsets.
	ids, ord             []int32
	cnts, starts, cursor []int32

	// tmp gathers one bucket's batch totals; acc is the running suffix
	// sum of a numeric feature's buckets (or the one bucket of a
	// categorical equality candidate) that is added into an entry's slot.
	tmp, acc []float64
}

func (r *scanRange) reserveRows(rows int) {
	if rows > len(r.ids) {
		r.ids = make([]int32, rows)
		r.ord = make([]int32, rows)
	}
}

// scanTask is the pool task of the pass: part i scans ranges[i].
type scanTask struct {
	t      *Tree
	n      *node
	nu     int // usable rows in the row cache
	w      int
	slots  int
	ranges []scanRange
}

func (st *scanTask) newRange() scanRange {
	return scanRange{
		cnts:   make([]int32, st.slots+1),
		starts: make([]int32, st.slots+1),
		cursor: make([]int32, st.slots+1),
		tmp:    make([]float64, st.w+2),
		acc:    make([]float64, st.w+2),
	}
}

func (st *scanTask) Part(i int) {
	r := &st.ranges[i]
	for j := r.f0; j < r.f1; j++ {
		st.t.scanFeature(st.n, j, st.nu, r)
	}
}

// scan runs the feature-major pass of updateStats over the nu cached
// rows: it charges every row to its one bucket per feature and adds each
// entry's suffix total into its arena slot, refreshing the slot's gain
// norms against the (already updated) node gradient. Features are split
// into contiguous ranges balanced by their cost (rows plus entries), one
// per pool goroutine; ranges own disjoint features, hence disjoint arena
// slots, and each feature's arithmetic is the same on every path, so the
// result is byte-identical to the inline pass.
func (t *Tree) scan(n *node, nu int) {
	sc := t.scratch
	st := &sc.scan
	ix := n.idx
	m := t.schema.NumFeatures
	st.t, st.n, st.nu = t, n, nu
	parts := 1
	if nu*m*st.w+ix.size()*st.w >= scanGate.minWork {
		parts = scanGate.parts
		if parts <= 0 {
			parts = pool.Helpers() + 1
		}
		parts = min(parts, m)
	}
	for len(st.ranges) < parts {
		r := st.newRange()
		r.reserveRows(sc.rowCap)
		st.ranges = append(st.ranges, r)
	}
	st.balance(ix, nu, parts)
	sc.group.Run(st, parts)
	st.t, st.n = nil, nil
	ix.normsOK = true
}

// balance splits the features into parts contiguous ranges of about equal
// cost, a feature costing its row gathers plus its entries' arena
// updates (nothing when it has no entries).
func (st *scanTask) balance(ix *candIndex, nu, parts int) {
	cost := func(j int) int {
		lo, hi := ix.featRange(j)
		if hi == lo {
			return 0
		}
		return nu + hi - lo
	}
	total := 0
	for j := 0; j < ix.m; j++ {
		total += cost(j)
	}
	j, cum := 0, 0
	for p := 0; p < parts; p++ {
		r := &st.ranges[p]
		r.f0 = j
		target := total * (p + 1) / parts
		for j < ix.m && (cum < target || p == parts-1) {
			cum += cost(j)
			j++
		}
		r.f1 = j
	}
}

// scanFeature is the pass for one feature j: (a) bucket ids for all rows,
// (b) a counting sort grouping row indices by bucket, (c) a walk over the
// buckets from last to first that gathers each bucket into a zeroed temp
// row (linalg.AddGatherRows), adds it to the running suffix sum and adds
// that sum into the entry's arena slot (linalg.AddNorms), caching the
// slot's gain norms. The temp row keeps every addition in the order of
// the old bucket-matrix-then-suffix-sweep pass, bit for bit. The
// arithmetic of (c) is the linalg kernels', which run as AVX2 assembly
// where the CPU has it; they give the bits of their generic Go loops, so
// this pass and every digest are the same on either path.
func (t *Tree) scanFeature(n *node, j, nu int, rg *scanRange) {
	ix := n.idx
	sc := t.scratch
	lo, hi := ix.featRange(j)
	if hi == lo {
		return
	}
	k := hi - lo
	w := ix.w
	cat := t.schema.IsCategorical(j)
	ents := ix.entries[lo:hi]
	col := sc.cols[j*sc.rowCap : j*sc.rowCap+nu]
	ids := rg.ids[:nu]
	cnts := rg.cnts[:k+1]
	for b := range cnts {
		cnts[b] = 0
	}
	// (a) Descending thresholds: the entries accepting a row
	// (value >= x) are a prefix, so its bucket id is the prefix
	// length (0 = unbucketed). The common path pads the thresholds
	// to four (-Inf accepts nothing) and uses a short compare chain
	// — cheap, branch-light and without a data-dependent loop.
	//
	// Categorical features instead use exact-match bucketing: the
	// equality acceptance sets are disjoint, so a row charges the
	// single entry whose level code matches (0 = no match), and the
	// per-bucket totals already ARE the candidates' equality-branch
	// totals — no suffix sum.
	switch {
	case cat && k <= 8:
		for r, x := range col {
			id := int32(0)
			for p := range ents {
				if ents[p].value == x {
					id = int32(p + 1)
					break
				}
			}
			ids[r] = id
			cnts[id]++
		}
	case cat:
		// Entries are sorted descending, so an exact match sits just
		// before the first smaller value.
		for r, x := range col {
			blo, bhi := 0, k
			for blo < bhi {
				mid := int(uint(blo+bhi) >> 1)
				if ents[mid].value >= x {
					blo = mid + 1
				} else {
					bhi = mid
				}
			}
			id := int32(0)
			if blo > 0 && ents[blo-1].value == x {
				id = int32(blo)
			}
			ids[r] = id
			cnts[id]++
		}
	case k <= 4:
		// The id is the COUNT of accepting thresholds (the accepting
		// set is a prefix), written as a sum of 0/1 indicators so the
		// compiler emits SETcc instead of branches — the middle
		// thresholds sit near the data median and would mispredict on
		// every other row.
		negInf := math.Inf(-1)
		th := [4]float64{negInf, negInf, negInf, negInf}
		for p := range ents {
			th[p] = ents[p].value
		}
		for r, x := range col {
			c0, c1, c2, c3 := 0, 0, 0, 0
			if th[0] >= x {
				c0 = 1
			}
			if th[1] >= x {
				c1 = 1
			}
			if th[2] >= x {
				c2 = 1
			}
			if th[3] >= x {
				c3 = 1
			}
			cnt := int32((c0 + c1) + (c2 + c3))
			ids[r] = cnt
			cnts[cnt]++
		}
	case k <= 8:
		negInf := math.Inf(-1)
		th := [8]float64{negInf, negInf, negInf, negInf, negInf, negInf, negInf, negInf}
		for p := range ents {
			th[p] = ents[p].value
		}
		for r, x := range col {
			c0, c1, c2, c3 := 0, 0, 0, 0
			c4, c5, c6, c7 := 0, 0, 0, 0
			if th[0] >= x {
				c0 = 1
			}
			if th[1] >= x {
				c1 = 1
			}
			if th[2] >= x {
				c2 = 1
			}
			if th[3] >= x {
				c3 = 1
			}
			if th[4] >= x {
				c4 = 1
			}
			if th[5] >= x {
				c5 = 1
			}
			if th[6] >= x {
				c6 = 1
			}
			if th[7] >= x {
				c7 = 1
			}
			cnt := int32(((c0 + c1) + (c2 + c3)) + ((c4 + c5) + (c6 + c7)))
			ids[r] = cnt
			cnts[cnt]++
		}
	default:
		for r, x := range col {
			blo, bhi := 0, k
			for blo < bhi {
				mid := int(uint(blo+bhi) >> 1)
				if ents[mid].value >= x {
					blo = mid + 1
				} else {
					bhi = mid
				}
			}
			ids[r] = int32(blo)
			cnts[blo]++
		}
	}
	// (b) Counting sort: group the bucketed row indices.
	starts := rg.starts[:k+1]
	cursor := rg.cursor[:k]
	total := int32(0)
	for b := 0; b < k; b++ {
		starts[b] = total
		cursor[b] = total
		total += cnts[b+1]
	}
	starts[k] = total
	if total == 0 {
		// No row reached this feature's thresholds: the arena is
		// unchanged, but the node gradient moved under the norms.
		for _, e := range ents {
			ix.normG[e.slot], ix.normD[e.slot] = linalg.Norms(ix.gradOf(e.slot), n.grad)
		}
		return
	}
	ord := rg.ord[:nu]
	for row, id := range ids {
		if id == 0 {
			continue
		}
		p := cursor[id-1]
		ord[p] = int32(row)
		cursor[id-1] = p + 1
	}
	// (c) Buckets from last to first: gather, extend the suffix sum, add
	// it into the slot.
	acc, tmp := rg.acc, rg.tmp
	linalg.Zero(acc)
	for b := k - 1; b >= 0; b-- {
		members := ord[starts[b]:starts[b+1]]
		if cat {
			linalg.Zero(acc)
		}
		if len(members) > 0 {
			row := tmp
			if cat {
				row = acc
			} else {
				linalg.Zero(row)
			}
			var lsum float64
			for _, m := range members {
				lsum += sc.rowLoss[m]
			}
			row[0] += lsum
			row[1] += float64(len(members))
			linalg.AddGatherRows(row[2:], sc.rowGrads, members, w)
			if !cat {
				linalg.Add(acc, row)
			}
		}
		slot := ents[b].slot
		ix.loss[slot] += acc[0]
		ix.n[slot] += acc[1]
		ix.normG[slot], ix.normD[slot] = linalg.AddNorms(ix.gradOf(slot), acc[2:], n.grad)
	}
}
