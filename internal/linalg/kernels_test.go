package linalg

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values the bit-identity tests draw from besides
// ordinary normals: signed zeros, subnormals, magnitudes whose squares and
// sums overflow, and infinities (whose sums make the default NaN).
var specials = []float64{
	0, math.Copysign(0, -1),
	5e-324, -5e-324, 2.2250738585072e-308, -1e-310,
	1e308, -1e308, math.MaxFloat64, 1e154, -3e200,
	math.Inf(1), math.Inf(-1),
	1, -1, 0.1, 1e-160,
}

func kernelValues(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		if rng.Intn(3) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		} else {
			v[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
		}
	}
	return v
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func sameSliceBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !sameBits(a[i], b[i]) {
			return false
		}
	}
	return true
}

// diffKernels runs Add, Norm2SqDiff, Norms and AddNorms on the
// equal-length x, y, p through the dispatched path and through the
// generic twins, and describes the first result whose bits differ.
func diffKernels(x, y, p []float64) string {
	got, want := Clone(x), Clone(x)
	Add(got, y)
	addGeneric(want, y)
	if !sameSliceBits(got, want) {
		return fmt.Sprintf("Add: %v, generic %v", got, want)
	}
	if g, w := Norm2SqDiff(x, y), norm2SqDiffGeneric(x, y); !sameBits(g, w) {
		return fmt.Sprintf("Norm2SqDiff: %v, generic %v", g, w)
	}
	gs, gd := Norms(x, p)
	ws, wd := normsGeneric(x, p)
	if !sameBits(gs, ws) || !sameBits(gd, wd) {
		return fmt.Sprintf("Norms: (%v, %v), generic (%v, %v)", gs, gd, ws, wd)
	}
	got, want = Clone(x), Clone(x)
	gs, gd = AddNorms(got, y, p)
	ws, wd = addNormsGeneric(want, y, p)
	if !sameBits(gs, ws) || !sameBits(gd, wd) || !sameSliceBits(got, want) {
		return fmt.Sprintf("AddNorms: (%v, %v) dst %v, generic (%v, %v) dst %v", gs, gd, got, ws, wd, want)
	}
	return ""
}

// diffGather runs AddGatherRows both ways on a copy of dst.
func diffGather(dst, src []float64, rows []int32, stride int) string {
	got, want := Clone(dst), Clone(dst)
	AddGatherRows(got, src, rows, stride)
	addGatherRowsGeneric(want, src, rows, stride)
	if !sameSliceBits(got, want) {
		return fmt.Sprintf("AddGatherRows: %v, generic %v", got, want)
	}
	return ""
}

func requireAVX2(t testing.TB) {
	if !useAVX2 {
		t.Skip("no AVX2 kernels on this CPU or architecture")
	}
}

// Every assembly kernel must give exactly the bits of its generic Go
// loop: the DMT's arena, cached gains and hence every golden digest
// depend on it. Lengths 0-80 cover every block and tail combination.
func TestKernelsMatchGenericBits(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(24))
	for n := 0; n <= 80; n++ {
		for trial := 0; trial < 20; trial++ {
			x, y, p := kernelValues(rng, n), kernelValues(rng, n), kernelValues(rng, n)
			if d := diffKernels(x, y, p); d != "" {
				t.Fatalf("n=%d trial %d: %s", n, trial, d)
			}
		}
	}
}

func TestAddGatherRowsMatchesGenericBits(t *testing.T) {
	requireAVX2(t)
	rng := rand.New(rand.NewSource(25))
	const nRows = 9
	rowSets := [][]int32{
		nil,
		{4},
		{3, 3, 3},
		{7, 0, 5, 3, 3, 8},
		{0, 1, 2, 3, 4, 5, 6, 7, 8},
		{8, 8, 1, 0, 8, 2, 6, 6, 4, 5, 7, 3, 3},
	}
	for w := 0; w <= 80; w++ {
		for _, stride := range []int{w, w + 1, w + 5, 2*w + 3} {
			src := kernelValues(rng, nRows*stride)
			for _, rows := range rowSets {
				dst := kernelValues(rng, w)
				if d := diffGather(dst, src, rows, stride); d != "" {
					t.Fatalf("w=%d stride=%d rows=%v: %s", w, stride, rows, d)
				}
				// The gather at an offset, as the scan uses it (row[2:]
				// of a wider buffer), over the last row of src.
				if w > 0 && stride > w {
					off := stride - w
					if d := diffGather(dst, src[off:], []int32{nRows - 1, 0}, stride); d != "" {
						t.Fatalf("w=%d stride=%d offset %d: %s", w, stride, off, d)
					}
				}
			}
		}
	}
}

// A row outside src panics before any element is read, on both paths,
// and leaves dst untouched.
func TestAddGatherRowsRowOutOfRangePanics(t *testing.T) {
	defer func(on bool) { useAVX2 = on }(useAVX2)
	const w, stride, nRows = 5, 6, 4
	src := make([]float64, nRows*stride-(stride-w))
	cases := []struct {
		src  []float64
		rows []int32
	}{
		{src, []int32{0, nRows}},
		{src, []int32{-1}},
		{src, []int32{1, 2, 1 << 30}},
		// The last row starts inside src but ends one element past it.
		{src[:len(src)-1], []int32{0, nRows - 1}},
	}
	for _, on := range []bool{false, useAVX2} {
		useAVX2 = on
		for _, c := range cases {
			dst := []float64{1, 2, 3, 4, 5}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("avx2=%v len(src)=%d rows=%v: no panic", on, len(c.src), c.rows)
					}
				}()
				AddGatherRows(dst, c.src, c.rows, stride)
			}()
			if dst[0] != 1 || dst[4] != 5 {
				t.Errorf("avx2=%v rows=%v: dst changed to %v", on, c.rows, dst)
			}
		}
		// The last row ends exactly at len(src): in range.
		AddGatherRows(make([]float64, w), src, []int32{nRows - 1}, stride)
	}
}

// No kernel allocates on either path.
func TestKernelsZeroAllocs(t *testing.T) {
	defer func(on bool) { useAVX2 = on }(useAVX2)
	rng := rand.New(rand.NewSource(26))
	const w = 51
	x, y, p := kernelValues(rng, w), kernelValues(rng, w), kernelValues(rng, w)
	src := kernelValues(rng, 16*w)
	rows := []int32{3, 9, 1, 15}
	kernels := map[string]func(){
		"Add":           func() { Add(x, y) },
		"Norm2SqDiff":   func() { sink = Norm2SqDiff(x, y) },
		"Norms":         func() { sink, _ = Norms(x, p) },
		"AddNorms":      func() { sink, _ = AddNorms(x, y, p) },
		"AddGatherRows": func() { AddGatherRows(x, src, rows, w) },
	}
	for _, on := range []bool{false, useAVX2} {
		useAVX2 = on
		for name, f := range kernels {
			if a := testing.AllocsPerRun(50, f); a != 0 {
				t.Errorf("avx2=%v %s: %v allocs/op, want 0", on, name, a)
			}
		}
	}
}

var sink float64

// defaultNaN is the quiet NaN x86 returns for an invalid operation such
// as Inf + -Inf.
var defaultNaN = math.Float64frombits(0xfff8000000000000)

// FuzzKernels checks bit identity on arbitrary float64 bit patterns and
// arbitrary gathers: data supplies the values eight bytes at a time,
// rowBytes the row indices. Go does not fix which operand's payload an
// add of two NaNs returns (the coverage-instrumented fuzzing build
// commuted one in the generic gather), so every input NaN becomes the
// default NaN that x86 arithmetic itself makes; then no add can see two
// different NaNs and every other bit must still match.
func FuzzKernels(f *testing.F) {
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(make([]byte, 8*40), []byte{1, 0, 2}, uint8(5), uint8(1))
	f.Add([]byte("\x00\x00\x00\x00\x00\x00\xf0\x7f\x00\x00\x00\x00\x00\x00\xf0\xff\x01\x00\x00\x00\x00\x00\x00\x00"), []byte{0, 0}, uint8(3), uint8(0))
	f.Fuzz(func(t *testing.T, data, rowBytes []byte, width, pad uint8) {
		requireAVX2(t)
		vals := make([]float64, len(data)/8)
		for i := range vals {
			vals[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if vals[i] != vals[i] {
				vals[i] = defaultNaN
			}
		}
		n := len(vals) / 3
		if d := diffKernels(vals[:n], vals[n:2*n], vals[2*n:3*n]); d != "" {
			t.Fatalf("n=%d: %s", n, d)
		}
		w := int(width % 81)
		stride := w + int(pad%8)
		if w == 0 || len(vals) < w+stride {
			return
		}
		nRows := (len(vals) - w) / stride
		rows := make([]int32, len(rowBytes))
		for i, b := range rowBytes {
			rows[i] = int32(int(b) % nRows)
		}
		if d := diffGather(vals[:w], vals[w:], rows, stride); d != "" {
			t.Fatalf("w=%d stride=%d rows=%v: %s", w, stride, rows, d)
		}
	})
}

// BenchmarkKernels times each kernel on the generic and the AVX2 path at
// the benchmark streams' gradient widths: 4 (SEA), 10 (Agrawal), 51
// (Hyperplane), 77 (TueEyeQ*) and 645 (Gas*, softmax (c-1)(m+1)). The
// gather sums 8 of 64 rows, about a bucket of a preq batch.
func BenchmarkKernels(b *testing.B) {
	avail := useAVX2
	defer func() { useAVX2 = avail }()
	paths := []struct {
		name string
		on   bool
	}{{"generic", false}, {"avx2", true}}
	for _, w := range []int{4, 10, 51, 77, 645} {
		rng := rand.New(rand.NewSource(int64(w)))
		normals := func(n int) []float64 {
			v := make([]float64, n)
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return v
		}
		x, y, p, src := normals(w), normals(w), normals(w), normals(64*w)
		rows := []int32{5, 17, 2, 40, 63, 8, 31, 22}
		kernels := []struct {
			name string
			f    func()
		}{
			{"Add", func() { Add(x, y) }},
			{"Norm2SqDiff", func() { sink = Norm2SqDiff(x, y) }},
			{"Norms", func() { sink, _ = Norms(x, p) }},
			{"AddNorms", func() { sink, _ = AddNorms(x, y, p) }},
			{"AddGatherRows", func() { AddGatherRows(x, src, rows, w) }},
		}
		for _, k := range kernels {
			for _, path := range paths {
				b.Run(fmt.Sprintf("%s/w=%d/%s", k.name, w, path.name), func(b *testing.B) {
					if path.on && !avail {
						b.Skip("no AVX2 kernels on this CPU or architecture")
					}
					useAVX2 = path.on
					for b.Loop() {
						k.f()
					}
				})
			}
		}
	}
}
