package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Fatalf("Dot = %v, want 32", got)
	}
	if got := Dot(nil, nil); got != 0 {
		t.Fatalf("Dot(nil,nil) = %v, want 0", got)
	}
}

func TestDotSymmetric(t *testing.T) {
	f := func(a, b [8]float64) bool {
		for i := range a {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		return almostEq(Dot(a[:], b[:]), Dot(b[:], a[:]), 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

// The unrolled kernels must agree with their naive definitions on every
// length (exercising all remainder paths) — within reassociation
// tolerance for the reductions, exactly for the elementwise ops.
func TestUnrolledKernelsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for n := 0; n <= 19; n++ {
		a := make([]float64, n)
		b := make([]float64, n)
		for i := range a {
			a[i] = rng.NormFloat64()
			b[i] = rng.NormFloat64()
		}
		var dot, n2, n2d float64
		for i := range a {
			dot += a[i] * b[i]
			n2 += a[i] * a[i]
			d := a[i] - b[i]
			n2d += d * d
		}
		if !almostEq(Dot(a, b), dot, 1e-12) {
			t.Fatalf("n=%d: Dot = %v, want %v", n, Dot(a, b), dot)
		}
		if !almostEq(Norm2Sq(a), n2, 1e-12) {
			t.Fatalf("n=%d: Norm2Sq = %v, want %v", n, Norm2Sq(a), n2)
		}
		if !almostEq(Norm2SqDiff(a, b), n2d, 1e-12) {
			t.Fatalf("n=%d: Norm2SqDiff = %v, want %v", n, Norm2SqDiff(a, b), n2d)
		}

		alpha := 1.5
		dst := append([]float64(nil), a...)
		AddScaled(dst, b, alpha)
		for i := range dst {
			if dst[i] != a[i]+alpha*b[i] {
				t.Fatalf("n=%d: AddScaled[%d] = %v", n, i, dst[i])
			}
		}
		mul := make([]float64, n)
		MulInto(mul, b, alpha)
		for i := range mul {
			if mul[i] != alpha*b[i] {
				t.Fatalf("n=%d: MulInto[%d] = %v", n, i, mul[i])
			}
		}
		add := append([]float64(nil), a...)
		Add(add, b)
		for i := range add {
			if add[i] != a[i]+b[i] {
				t.Fatalf("n=%d: Add[%d] = %v", n, i, add[i])
			}
		}
	}
}

// AddNorms and Norms must be bit-identical to Add followed by Norm2Sq
// and Norm2SqDiff, for every width (all unrolling remainders): the DMT's
// cached candidate gains depend on it.
func TestAddNormsMatchesSeparateKernels(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for n := 0; n <= 13; n++ {
		dst := make([]float64, n)
		x := make([]float64, n)
		p := make([]float64, n)
		for i := 0; i < n; i++ {
			dst[i], x[i], p[i] = rng.NormFloat64()*1e3, rng.NormFloat64(), rng.NormFloat64()*7
		}
		want := append([]float64(nil), dst...)
		Add(want, x)
		wantSq, wantDiff := Norm2Sq(want), Norm2SqDiff(p, want)
		sq, diff := AddNorms(dst, x, p)
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("n=%d: AddNorms dst[%d] = %v, want %v", n, i, dst[i], want[i])
			}
		}
		if sq != wantSq || diff != wantDiff {
			t.Fatalf("n=%d: AddNorms = (%v, %v), want (%v, %v)", n, sq, diff, wantSq, wantDiff)
		}
		if sq, diff := Norms(dst, p); sq != wantSq || diff != wantDiff {
			t.Fatalf("n=%d: Norms = (%v, %v), want (%v, %v)", n, sq, diff, wantSq, wantDiff)
		}
	}
}

// AddGatherRows must be bit-identical to adding the gathered rows one at
// a time with Add, for every destination width (all blocking remainders)
// and any gather order, including repeats.
func TestAddGatherRowsMatchesSequentialAdds(t *testing.T) {
	rng := rand.New(rand.NewSource(72))
	for _, w := range []int{1, 2, 3, 4, 5, 7, 8, 11, 16} {
		const nRows = 9
		src := make([]float64, nRows*w)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		rows := []int32{3, 0, 7, 3, 5}
		got := make([]float64, w)
		want := make([]float64, w)
		for i := range got {
			got[i] = rng.NormFloat64()
			want[i] = got[i]
		}
		AddGatherRows(got, src, rows, w)
		for _, r := range rows {
			Add(want, src[int(r)*w:int(r)*w+w])
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("w=%d: AddGatherRows[%d] = %v, want %v (must be bit-identical)", w, i, got[i], want[i])
			}
		}
		AddGatherRows(got, src, nil, w) // empty gather is a no-op
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("w=%d: empty gather changed dst", w)
			}
		}
	}
}

func TestIsFiniteNonFiniteInputs(t *testing.T) {
	if !IsFinite([]float64{0, -0, 1e308, -1e308, 5e-324}) {
		t.Fatal("finite slice rejected")
	}
	if !IsFinite(nil) {
		t.Fatal("empty slice rejected")
	}
	for _, bad := range [][]float64{
		{math.NaN()},
		{math.Inf(1)},
		{math.Inf(-1)},
		{1, 2, math.NaN(), 4},
		{1, 2, 3, math.Inf(1)},
	} {
		if IsFinite(bad) {
			t.Fatalf("non-finite slice %v accepted", bad)
		}
	}
}

func TestAxpy(t *testing.T) {
	dst := []float64{1, 2, 3}
	Axpy(2, []float64{10, 20, 30}, dst)
	want := []float64{21, 42, 63}
	for i := range want {
		if dst[i] != want[i] {
			t.Fatalf("Axpy[%d] = %v, want %v", i, dst[i], want[i])
		}
	}
}

func TestAddSubScale(t *testing.T) {
	a := []float64{1, 2}
	Add(a, []float64{3, 4})
	if a[0] != 4 || a[1] != 6 {
		t.Fatalf("Add = %v", a)
	}
	d := Sub([]float64{5, 5}, []float64{2, 3})
	if d[0] != 3 || d[1] != 2 {
		t.Fatalf("Sub = %v", d)
	}
	Scale(0.5, d)
	if d[0] != 1.5 || d[1] != 1 {
		t.Fatalf("Scale = %v", d)
	}
}

func TestSubInto(t *testing.T) {
	dst := make([]float64, 2)
	SubInto(dst, []float64{5, 7}, []float64{2, 3})
	if dst[0] != 3 || dst[1] != 4 {
		t.Fatalf("SubInto = %v", dst)
	}
}

func TestNorms(t *testing.T) {
	x := []float64{3, 4}
	if Norm2Sq(x) != 25 {
		t.Fatalf("Norm2Sq = %v", Norm2Sq(x))
	}
	if Norm2(x) != 5 {
		t.Fatalf("Norm2 = %v", Norm2(x))
	}
}

// Norm2SqDiff must equal Norm2Sq(Sub(a,b)) for sane magnitudes (extreme
// values overflow both computations identically to +Inf, which almostEq
// cannot compare).
func TestNorm2SqDiffMatchesSub(t *testing.T) {
	f := func(a, b [6]float64) bool {
		for i := range a {
			a[i] = math.Mod(a[i], 1e6)
			b[i] = math.Mod(b[i], 1e6)
			if math.IsNaN(a[i]) {
				a[i] = 0
			}
			if math.IsNaN(b[i]) {
				b[i] = 0
			}
		}
		return almostEq(Norm2SqDiff(a[:], b[:]), Norm2Sq(Sub(a[:], b[:])), 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := []float64{1, 2, 3}
	b := Clone(a)
	b[0] = 99
	if a[0] != 1 {
		t.Fatal("Clone shares backing array")
	}
}

func TestZero(t *testing.T) {
	a := []float64{1, 2, 3}
	Zero(a)
	for _, v := range a {
		if v != 0 {
			t.Fatalf("Zero left %v", a)
		}
	}
}

func TestArgMax(t *testing.T) {
	cases := []struct {
		in   []float64
		want int
	}{
		{nil, -1},
		{[]float64{1}, 0},
		{[]float64{1, 3, 2}, 1},
		{[]float64{3, 3, 3}, 0}, // ties resolve low
		{[]float64{-5, -2, -9}, 1},
	}
	for _, c := range cases {
		if got := ArgMax(c.in); got != c.want {
			t.Errorf("ArgMax(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestSumClip(t *testing.T) {
	if Sum([]float64{1, 2, 3}) != 6 {
		t.Fatal("Sum")
	}
	if Clip(5, 0, 1) != 1 || Clip(-5, 0, 1) != 0 || Clip(0.5, 0, 1) != 0.5 {
		t.Fatal("Clip")
	}
}

func TestIsFinite(t *testing.T) {
	if !IsFinite([]float64{1, 2}) {
		t.Fatal("finite reported non-finite")
	}
	if IsFinite([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
	if IsFinite([]float64{math.Inf(1)}) {
		t.Fatal("Inf not detected")
	}
	if !IsFinite(nil) {
		t.Fatal("empty slice should be finite")
	}
}

// LogSumExp must match the naive computation where the naive one is
// stable, and must not overflow where it is not.
func TestLogSumExp(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		x := make([]float64, 1+rng.Intn(8))
		for i := range x {
			x[i] = rng.NormFloat64() * 3
		}
		naive := 0.0
		for _, v := range x {
			naive += math.Exp(v)
		}
		if !almostEq(LogSumExp(x), math.Log(naive), 1e-9) {
			t.Fatalf("LogSumExp(%v) = %v, want %v", x, LogSumExp(x), math.Log(naive))
		}
	}
	// Stability: huge inputs must not overflow.
	got := LogSumExp([]float64{1000, 1000})
	if math.IsInf(got, 0) || !almostEq(got, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp stability: got %v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(empty) should be -Inf")
	}
}
