// Package linalg provides the small dense vector operations used by the
// simple models and split statistics throughout the repository. All
// functions operate on plain []float64 slices and avoid allocation where a
// destination slice is supplied.
//
// The five kernels of the DMT candidate scan — Add, Norm2SqDiff, Norms,
// AddNorms and AddGatherRows — run as AVX2 assembly (kernels_amd64.s)
// on amd64 CPUs whose CPUID and XGETBV report AVX2 with OS-saved YMM
// state, and as generic Go loops everywhere else. The generic loops (the
// unexported …Generic functions) are the reference: the assembly gives
// exactly their bits. It keeps their four-accumulator order (lane k of
// a YMM register is the loop's accumulator for i mod 4 == k; a gather
// sums each coordinate in row order), multiplies and adds with separate
// instructions, never FMA, keeps each add's operand order, and leaves
// the reductions' 1-3 element tail to the same Go code as the loops. The
// golden digests of the DMT therefore do not depend on the path. A new
// assembly kernel needs a bit-identity test against its generic twin in
// kernels_test.go, on the lengths, strides and special values there.
package linalg

import "math"

// Dot returns the inner product of a and b. The slices must have equal
// length; Dot panics otherwise, since a length mismatch is always a
// programming error in this code base. The loop is 4-way unrolled with
// independent accumulators, so the summation order (and hence the final
// rounding) differs from a naive sequential loop by O(n·eps).
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		bi := b[i : i+4 : i+4]
		s0 += a[i] * bi[0]
		s1 += a[i+1] * bi[1]
		s2 += a[i+2] * bi[2]
		s3 += a[i+3] * bi[3]
	}
	for ; i < len(a); i++ {
		s0 += a[i] * b[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Axpy computes dst[i] += alpha*x[i] in place.
func Axpy(alpha float64, x, dst []float64) {
	AddScaled(dst, x, alpha)
}

// AddScaled computes dst[i] += alpha*x[i] in place (BLAS axpy), 4-way
// unrolled. It is the fused kernel behind the SGD step and the gradient
// accumulation of the candidate index.
func AddScaled(dst, x []float64, alpha float64) {
	if len(x) != len(dst) {
		panic("linalg: AddScaled length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		di := dst[i : i+4 : i+4]
		di[0] += alpha * x[i]
		di[1] += alpha * x[i+1]
		di[2] += alpha * x[i+2]
		di[3] += alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		dst[i] += alpha * x[i]
	}
}

// MulInto writes alpha*x[i] into dst, overwriting it.
func MulInto(dst, x []float64, alpha float64) {
	if len(x) != len(dst) {
		panic("linalg: MulInto length mismatch")
	}
	i := 0
	for ; i+4 <= len(x); i += 4 {
		di := dst[i : i+4 : i+4]
		di[0] = alpha * x[i]
		di[1] = alpha * x[i+1]
		di[2] = alpha * x[i+2]
		di[3] = alpha * x[i+3]
	}
	for ; i < len(x); i++ {
		dst[i] = alpha * x[i]
	}
}

// Add computes dst[i] += x[i] in place.
func Add(dst, x []float64) {
	if len(x) != len(dst) {
		panic("linalg: Add length mismatch")
	}
	add(dst, x)
}

// addGeneric is the reference loop of Add, 4-way unrolled.
func addGeneric(dst, x []float64) {
	i := 0
	for ; i+4 <= len(x); i += 4 {
		di := dst[i : i+4 : i+4]
		di[0] += x[i]
		di[1] += x[i+1]
		di[2] += x[i+2]
		di[3] += x[i+3]
	}
	for ; i < len(x); i++ {
		dst[i] += x[i]
	}
}

// Sub returns a new slice holding a[i]-b[i].
func Sub(a, b []float64) []float64 {
	if len(a) != len(b) {
		panic("linalg: Sub length mismatch")
	}
	out := make([]float64, len(a))
	for i, v := range a {
		out[i] = v - b[i]
	}
	return out
}

// SubInto writes a[i]-b[i] into dst, which must have the same length.
func SubInto(dst, a, b []float64) {
	if len(a) != len(b) || len(dst) != len(a) {
		panic("linalg: SubInto length mismatch")
	}
	for i, v := range a {
		dst[i] = v - b[i]
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// Norm2Sq returns the squared Euclidean norm of x, 4-way unrolled.
func Norm2Sq(x []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(x); i += 4 {
		xi := x[i : i+4 : i+4]
		s0 += xi[0] * xi[0]
		s1 += xi[1] * xi[1]
		s2 += xi[2] * xi[2]
		s3 += xi[3] * xi[3]
	}
	for ; i < len(x); i++ {
		s0 += x[i] * x[i]
	}
	return (s0 + s1) + (s2 + s3)
}

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 { return math.Sqrt(Norm2Sq(x)) }

// Norm2SqDiff returns the squared Euclidean norm of a-b without
// allocating.
func Norm2SqDiff(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Norm2SqDiff length mismatch")
	}
	return norm2SqDiff(a, b)
}

// norm2SqDiffGeneric is the reference loop of Norm2SqDiff, 4-way
// unrolled: four accumulators by i mod 4, the tail into the first.
func norm2SqDiffGeneric(a, b []float64) float64 {
	var s0, s1, s2, s3 float64
	i := 0
	for ; i+4 <= len(a); i += 4 {
		bi := b[i : i+4 : i+4]
		d0 := a[i] - bi[0]
		d1 := a[i+1] - bi[1]
		d2 := a[i+2] - bi[2]
		d3 := a[i+3] - bi[3]
		s0 += d0 * d0
		s1 += d1 * d1
		s2 += d2 * d2
		s3 += d3 * d3
	}
	for ; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s1) + (s2 + s3)
}

// AddGatherRows computes dst[c] += Σ_r src[rows[r]*stride+c] — the sum of
// a gathered set of stride-wide rows, accumulated destination-stationary:
// four output coordinates are held in registers while the member rows
// stream past, so each element costs one load and one add instead of the
// load/add/store round trip of repeated Add calls. The accumulation order
// per coordinate is exactly row order, so the result is bit-identical to
// adding the rows one at a time. Every gathered row must lie within src:
// AddGatherRows panics on a row r with r*stride < 0 or
// r*stride+len(dst) > len(src).
func AddGatherRows(dst, src []float64, rows []int32, stride int) {
	if len(dst) == 0 {
		return
	}
	for _, r := range rows {
		if base := int(r) * stride; base < 0 || base > len(src)-len(dst) {
			panic("linalg: AddGatherRows row out of range")
		}
	}
	addGatherRows(dst, src, rows, stride)
}

// addGatherRowsGeneric is the reference loop of AddGatherRows.
func addGatherRowsGeneric(dst, src []float64, rows []int32, stride int) {
	c := 0
	for ; c+8 <= len(dst); c += 8 {
		s0, s1, s2, s3 := dst[c], dst[c+1], dst[c+2], dst[c+3]
		s4, s5, s6, s7 := dst[c+4], dst[c+5], dst[c+6], dst[c+7]
		for _, r := range rows {
			base := int(r) * stride
			g := src[base+c : base+c+8 : base+c+8]
			s0 += g[0]
			s1 += g[1]
			s2 += g[2]
			s3 += g[3]
			s4 += g[4]
			s5 += g[5]
			s6 += g[6]
			s7 += g[7]
		}
		dst[c], dst[c+1], dst[c+2], dst[c+3] = s0, s1, s2, s3
		dst[c+4], dst[c+5], dst[c+6], dst[c+7] = s4, s5, s6, s7
	}
	for ; c < len(dst); c++ {
		s := dst[c]
		for _, r := range rows {
			s += src[int(r)*stride+c]
		}
		dst[c] = s
	}
}

// AddNorms computes dst[i] += x[i] in place and returns, from the same
// pass, Norm2Sq(dst) and Norm2SqDiff(p, dst) of the updated dst. Both
// norms keep the four-accumulator order of Norm2Sq and Norm2SqDiff, so
// they are bit-identical to calling those after Add. It is the
// arena-update kernel of the DMT candidate scan: the gain of a candidate
// needs exactly ||g||² and ||parent-g||² of its fresh left gradient g.
func AddNorms(dst, x, p []float64) (sq, diffSq float64) {
	if len(x) != len(dst) || len(p) != len(dst) {
		panic("linalg: AddNorms length mismatch")
	}
	return addNorms(dst, x, p)
}

// addNormsGeneric is the reference loop of AddNorms.
func addNormsGeneric(dst, x, p []float64) (sq, diffSq float64) {
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	i := 0
	for ; i+4 <= len(dst); i += 4 {
		di := dst[i : i+4 : i+4]
		xi := x[i : i+4 : i+4]
		pi := p[i : i+4 : i+4]
		c0 := di[0] + xi[0]
		c1 := di[1] + xi[1]
		c2 := di[2] + xi[2]
		c3 := di[3] + xi[3]
		di[0], di[1], di[2], di[3] = c0, c1, c2, c3
		s0 += c0 * c0
		s1 += c1 * c1
		s2 += c2 * c2
		s3 += c3 * c3
		d0 := pi[0] - c0
		d1 := pi[1] - c1
		d2 := pi[2] - c2
		d3 := pi[3] - c3
		t0 += d0 * d0
		t1 += d1 * d1
		t2 += d2 * d2
		t3 += d3 * d3
	}
	for ; i < len(dst); i++ {
		c := dst[i] + x[i]
		dst[i] = c
		s0 += c * c
		d := p[i] - c
		t0 += d * d
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// Norms returns Norm2Sq(c) and Norm2SqDiff(p, c) from one pass, each
// bit-identical to the separate call.
func Norms(c, p []float64) (sq, diffSq float64) {
	if len(p) != len(c) {
		panic("linalg: Norms length mismatch")
	}
	return norms(c, p)
}

// normsGeneric is the reference loop of Norms.
func normsGeneric(c, p []float64) (sq, diffSq float64) {
	var s0, s1, s2, s3 float64
	var t0, t1, t2, t3 float64
	i := 0
	for ; i+4 <= len(c); i += 4 {
		ci := c[i : i+4 : i+4]
		pi := p[i : i+4 : i+4]
		s0 += ci[0] * ci[0]
		s1 += ci[1] * ci[1]
		s2 += ci[2] * ci[2]
		s3 += ci[3] * ci[3]
		d0 := pi[0] - ci[0]
		d1 := pi[1] - ci[1]
		d2 := pi[2] - ci[2]
		d3 := pi[3] - ci[3]
		t0 += d0 * d0
		t1 += d1 * d1
		t2 += d2 * d2
		t3 += d3 * d3
	}
	for ; i < len(c); i++ {
		s0 += c[i] * c[i]
		d := p[i] - c[i]
		t0 += d * d
	}
	return (s0 + s1) + (s2 + s3), (t0 + t1) + (t2 + t3)
}

// Clone returns a copy of x.
func Clone(x []float64) []float64 {
	out := make([]float64, len(x))
	copy(out, x)
	return out
}

// Zero sets every element of x to 0.
func Zero(x []float64) {
	for i := range x {
		x[i] = 0
	}
}

// ArgMax returns the index of the largest element of x, or -1 for an empty
// slice. Ties resolve to the lowest index.
func ArgMax(x []float64) int {
	if len(x) == 0 {
		return -1
	}
	best := 0
	for i := 1; i < len(x); i++ {
		if x[i] > x[best] {
			best = i
		}
	}
	return best
}

// Sum returns the sum of the elements of x.
func Sum(x []float64) float64 {
	var s float64
	for _, v := range x {
		s += v
	}
	return s
}

// Clip bounds v into [lo, hi].
func Clip(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// IsFinite reports whether every element of x is finite (no NaN or Inf).
// v*0 is 0 for every finite v and NaN for NaN or ±Inf, so one branchless
// multiply-accumulate per element replaces the two classification
// branches of the naive check.
func IsFinite(x []float64) bool {
	var s float64
	for _, v := range x {
		s += v * 0
	}
	return s == 0
}

// LogSumExp returns log(sum_i exp(x[i])) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}
