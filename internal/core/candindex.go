package core

import (
	"repro/internal/linalg"
	"repro/internal/stream"
)

// candEntry is one split-candidate threshold in the per-feature index.
// The statistics live in the owning candIndex's flat arena at slot; the
// entry itself is a plain value so the sorted entry array stays
// pointer-free and contiguous.
type candEntry struct {
	value float64
	slot  int32
}

// candIndex stores a node's split-candidate statistics (Algorithm 1,
// lines 4-17) as a per-feature sorted threshold index over one flat
// arena. Entries are ordered by (feature ascending, threshold
// descending); offsets[j]..offsets[j+1] delimits feature j. Each entry's
// lifetime statistics — left-branch loss, observation count and gradient
// — occupy a fixed arena slot (loss[slot], n[slot],
// grad[slot*w:(slot+1)*w]) that never moves while the entry lives, so
// sorted-order maintenance shifts only 16-byte entry values, never the
// gradients.
//
// The descending threshold order makes per-row accumulation a single
// bucket write: a row with feature value x is accepted by exactly the
// prefix of entries with threshold >= x, so it is charged to the LAST
// accepting entry (its bucket). The batch scan then walks each feature's
// buckets from last to first, keeping a running suffix sum that is every
// entry's batch total in turn, and adds it into the entry's slot in the
// same pass that computes the slot's gain norms. This replaces the old
// O(rows·candidates·weights) fold with O(rows·(log k + weights)) per
// feature plus one O(candidates·weights) pass.
//
// normG and normD cache, per slot, ||grad||² and ||p-grad||² against the
// owning node's gradient p — the two O(w) terms of every gain (3)/(4)
// read. The scan fills them for every live entry and sets normsOK; an
// insert, a reset and therefore a restore clear it, and a reader that
// finds the cache stale recomputes it (refreshNorms).
//
// All storage is allocated once at construction (maxSlots bounds the
// stored pool plus one batch of proposals), so steady-state maintenance
// performs no allocation.
type candIndex struct {
	m, w    int
	entries []candEntry // sorted by (feature asc, value desc)
	offsets []int32     // len m+1; feature j occupies [offsets[j], offsets[j+1])
	loss    []float64   // per slot: left-branch loss total
	n       []float64   // per slot: left-branch observation count
	grad    []float64   // per slot: w-wide left-branch gradient total
	free    []int32     // free arena slots (stack)
	normG   []float64   // per slot: ||grad||²
	normD   []float64   // per slot: ||p-grad||² against the node gradient p
	normsOK bool        // normG/normD hold for every live entry and the current p
}

// maxSlots returns the arena capacity for a schema: the stored pool cap
// plus the worst-case concurrent proposals — one sampled value per
// feature in the steady state, or the cold-start burst (3 quartiles per
// numeric feature, every batch-distinct level of a categorical one,
// bounded by the feature's pool share).
func maxSlots(cfg *Config, schema stream.Schema) int {
	m := schema.NumFeatures
	slots := candidateCap(cfg, schema) + m
	cold := 0
	for j := 0; j < m; j++ {
		if schema.IsCategorical(j) {
			cold += featureSlotCap(cfg, schema, j)
		} else {
			cold += 3
		}
	}
	if slots < cold {
		slots = cold
	}
	return slots
}

func newCandIndex(m, w, slots int) *candIndex {
	ix := &candIndex{
		m:       m,
		w:       w,
		entries: make([]candEntry, 0, slots),
		offsets: make([]int32, m+1),
		loss:    make([]float64, slots),
		n:       make([]float64, slots),
		grad:    make([]float64, slots*w),
		free:    make([]int32, slots),
		normG:   make([]float64, slots),
		normD:   make([]float64, slots),
	}
	for i := range ix.free {
		ix.free[i] = int32(slots - 1 - i) // pop order 0,1,2,... for determinism
	}
	return ix
}

// size returns the number of live entries.
func (ix *candIndex) size() int { return len(ix.entries) }

// reset clears every entry and returns all slots to the free stack.
func (ix *candIndex) reset() {
	ix.normsOK = false
	ix.entries = ix.entries[:0]
	for j := range ix.offsets {
		ix.offsets[j] = 0
	}
	slots := len(ix.loss)
	ix.free = ix.free[:slots]
	for i := range ix.free {
		ix.free[i] = int32(slots - 1 - i)
	}
}

// featRange returns the half-open entry range of feature j.
func (ix *candIndex) featRange(j int) (lo, hi int) {
	return int(ix.offsets[j]), int(ix.offsets[j+1])
}

// gradOf returns the arena gradient of a slot.
func (ix *candIndex) gradOf(slot int32) []float64 {
	base := int(slot) * ix.w
	return ix.grad[base : base+ix.w : base+ix.w]
}

// refreshNorms recomputes the gain norms of every live entry against the
// node gradient p unless the last scan left them current. It leaves
// normsOK as it found it: only the scan, which also owns every arena
// update, may vouch for the cache.
func (ix *candIndex) refreshNorms(p []float64) {
	if ix.normsOK {
		return
	}
	for _, e := range ix.entries {
		ix.normG[e.slot], ix.normD[e.slot] = linalg.Norms(ix.gradOf(e.slot), p)
	}
}

// featureOf returns the feature owning entry position pos.
func (ix *candIndex) featureOf(pos int) int {
	// Positions are dense and offsets monotone; binary search the feature.
	lo, hi := 0, ix.m
	for lo < hi {
		mid := (lo + hi) / 2
		if int(ix.offsets[mid+1]) <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// lowerPos returns the first position in [lo, hi) whose value is < x
// (entries are descending), i.e. one past the accepting prefix for a row
// with feature value x. Small ranges scan linearly — with the default
// pool of three thresholds per feature that beats binary search.
func (ix *candIndex) lowerPos(lo, hi int, x float64) int {
	if hi-lo <= 8 {
		for pos := lo; pos < hi; pos++ {
			if ix.entries[pos].value < x {
				return pos
			}
		}
		return hi
	}
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ix.entries[mid].value >= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// find returns the position of (feature, value), if stored.
func (ix *candIndex) find(feature int, value float64) (int, bool) {
	lo, hi := ix.featRange(feature)
	// First entry with value < target is one past any exact match.
	p := ix.lowerPos(lo, hi, value)
	if p > lo && ix.entries[p-1].value == value {
		return p - 1, true
	}
	return -1, false
}

// insert adds (feature, value) with zeroed statistics, keeping the sorted
// order, and returns the assigned arena slot. ok is false when the value
// is already stored or the arena is full.
func (ix *candIndex) insert(feature int, value float64) (int32, bool) {
	if len(ix.free) == 0 {
		return 0, false
	}
	lo, hi := ix.featRange(feature)
	p := ix.lowerPos(lo, hi, value)
	if p > lo && ix.entries[p-1].value == value {
		return 0, false
	}
	slot := ix.free[len(ix.free)-1]
	ix.free = ix.free[:len(ix.free)-1]
	ix.normsOK = false
	ix.loss[slot] = 0
	ix.n[slot] = 0
	g := ix.gradOf(slot)
	for i := range g {
		g[i] = 0
	}
	ix.entries = append(ix.entries, candEntry{})
	copy(ix.entries[p+1:], ix.entries[p:])
	ix.entries[p] = candEntry{value: value, slot: slot}
	for j := feature + 1; j <= ix.m; j++ {
		ix.offsets[j]++
	}
	return slot, true
}

// removeAt deletes the entry at position pos of the given feature and
// frees its slot.
func (ix *candIndex) removeAt(feature, pos int) {
	ix.free = append(ix.free, ix.entries[pos].slot)
	copy(ix.entries[pos:], ix.entries[pos+1:])
	ix.entries = ix.entries[:len(ix.entries)-1]
	for j := feature + 1; j <= ix.m; j++ {
		ix.offsets[j]--
	}
}

// remove deletes (feature, value) if stored.
func (ix *candIndex) remove(feature int, value float64) bool {
	pos, ok := ix.find(feature, value)
	if !ok {
		return false
	}
	ix.removeAt(feature, pos)
	return true
}
