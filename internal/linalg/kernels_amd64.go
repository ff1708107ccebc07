package linalg

// useAVX2 selects the assembly kernels of kernels_amd64.s. It is set once,
// from CPUID and XGETBV: the CPU must support AVX2 and the OS must save
// the YMM registers. Tests flip it to run both paths.
var useAVX2 = cpuHasAVX2()

func cpuHasAVX2() bool

//go:noescape
func addAVX2(dst, x []float64)

//go:noescape
func norm2SqDiffAVX2(a, b []float64, s *[4]float64)

//go:noescape
func normsAVX2(c, p []float64, s, t *[4]float64)

//go:noescape
func addNormsAVX2(dst, x, p []float64, s, t *[4]float64)

//go:noescape
func addGatherRowsAVX2(dst, src []float64, rows []int32, stride int)

func add(dst, x []float64) {
	if useAVX2 {
		addAVX2(dst, x)
		return
	}
	addGeneric(dst, x)
}

func norm2SqDiff(a, b []float64) float64 {
	if !useAVX2 {
		return norm2SqDiffGeneric(a, b)
	}
	var s [4]float64
	n := len(a) &^ 3
	norm2SqDiffAVX2(a, b, &s)
	s0 := s[0]
	for i := n; i < len(a); i++ {
		d := a[i] - b[i]
		s0 += d * d
	}
	return (s0 + s[1]) + (s[2] + s[3])
}

func norms(c, p []float64) (sq, diffSq float64) {
	if !useAVX2 {
		return normsGeneric(c, p)
	}
	var s, t [4]float64
	n := len(c) &^ 3
	normsAVX2(c, p, &s, &t)
	s0, t0 := s[0], t[0]
	for i := n; i < len(c); i++ {
		s0 += c[i] * c[i]
		d := p[i] - c[i]
		t0 += d * d
	}
	return (s0 + s[1]) + (s[2] + s[3]), (t0 + t[1]) + (t[2] + t[3])
}

func addNorms(dst, x, p []float64) (sq, diffSq float64) {
	if !useAVX2 {
		return addNormsGeneric(dst, x, p)
	}
	var s, t [4]float64
	n := len(dst) &^ 3
	addNormsAVX2(dst, x, p, &s, &t)
	s0, t0 := s[0], t[0]
	for i := n; i < len(dst); i++ {
		c := dst[i] + x[i]
		dst[i] = c
		s0 += c * c
		d := p[i] - c
		t0 += d * d
	}
	return (s0 + s[1]) + (s[2] + s[3]), (t0 + t[1]) + (t[2] + t[3])
}

func addGatherRows(dst, src []float64, rows []int32, stride int) {
	if useAVX2 {
		addGatherRowsAVX2(dst, src, rows, stride)
		return
	}
	addGatherRowsGeneric(dst, src, rows, stride)
}
