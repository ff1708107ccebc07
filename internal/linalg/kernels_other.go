//go:build !amd64

package linalg

// useAVX2 is false off amd64: every kernel runs its generic Go loop.
var useAVX2 = false

func add(dst, x []float64) { addGeneric(dst, x) }

func norm2SqDiff(a, b []float64) float64 { return norm2SqDiffGeneric(a, b) }

func norms(c, p []float64) (sq, diffSq float64) { return normsGeneric(c, p) }

func addNorms(dst, x, p []float64) (sq, diffSq float64) {
	return addNormsGeneric(dst, x, p)
}

func addGatherRows(dst, src []float64, rows []int32, stride int) {
	addGatherRowsGeneric(dst, src, rows, stride)
}
