package core

import (
	"repro/internal/linalg"
)

// Split-candidate statistics accumulate, for the would-be left child C
// (rows with x[feature] <= value), the loss of the parent model on C, the
// gradient of that loss, and the row count. The right-child statistics
// are always derived as parent minus left, so they are never stored
// (Algorithm 1, note before line 4). The storage itself lives in the
// per-feature sorted-threshold index (candindex.go); this file keeps the
// gain arithmetic.

// candidateGain evaluates gain (3)/(4) for left statistics (cLoss, cGrad,
// cN) against parent statistics (pLoss, pGrad, pN), using the
// gradient-step loss approximation of eq. (7) on both branches:
//
//	L̂(C)  = L(Θ_S; C)  - lr/|C|  * ||∇L(Θ_S; C)||²
//	L̂(C̄) = L(Θ_S; C̄) - lr/|C̄| * ||∇L(Θ_S; C̄)||²
//	G      = referenceLoss - L̂(C) - L̂(C̄)
//
// referenceLoss is L(S) at a leaf (gain 3) or the subtree's summed leaf
// loss at an inner node (gain 4). Returns ok=false when either branch has
// fewer than minN observations.
func candidateGain(referenceLoss float64, pLoss float64, pGrad []float64, pN float64,
	cLoss float64, cGrad []float64, cN float64, lr, minN float64) (float64, bool) {
	return gainFromNorms(referenceLoss, pLoss, pN, cLoss, cN,
		linalg.Norm2Sq(cGrad), linalg.Norm2SqDiff(pGrad, cGrad), lr, minN)
}

// gainFromNorms is candidateGain with the two gradient norms given:
// normG = ||∇L(Θ_S; C)||² and normD = ||∇L(Θ_S; S) - ∇L(Θ_S; C)||². The
// DMT scan caches both per candidate slot (candIndex.normG/normD), so
// the admission ranking and the split search read a gain in O(1).
func gainFromNorms(referenceLoss, pLoss, pN, cLoss, cN, normG, normD, lr, minN float64) (float64, bool) {
	rN := pN - cN
	if cN < minN || rN < minN {
		return 0, false
	}
	leftHat := cLoss - lr/cN*normG
	rightLoss := pLoss - cLoss
	rightHat := rightLoss - lr/rN*normD
	return referenceLoss - leftHat - rightHat, true
}

// slotGain is gainFromNorms for a stored candidate of node n, read from
// the slot's cached norms; the caller refreshes them first.
func slotGain(n *node, slot int32, referenceLoss, lr, minN float64) (float64, bool) {
	ix := n.idx
	return gainFromNorms(referenceLoss, n.loss, n.n, ix.loss[slot], ix.n[slot],
		ix.normG[slot], ix.normD[slot], lr, minN)
}
