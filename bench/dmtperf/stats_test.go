package main

import (
	"testing"
	"time"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {100, 10}, {10, 1}, {1, 1},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile reordered its input")
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("empty p50 = %v, want 0", got)
	}
}

func TestMedianEvenAndOdd(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5}, {[]float64{7}, 7}, {nil, 0},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
}

// One slow slice moves its own p99 but not the median over the slices.
func TestSlicePercentileIgnoresOneBadSlice(t *testing.T) {
	from := time.Unix(0, 0)
	to := from.Add(5 * time.Second)
	var ss []sample
	for i := 0; i < 5000; i++ {
		at := from.Add(time.Duration(i) * time.Millisecond)
		v := 1.0 + float64(i%100)/100 // p99 of each slice is 1.98
		if i >= 1000 && i < 1100 {
			v = 50 // a spike in the second slice
		}
		ss = append(ss, sample{at: at, v: v})
	}
	ss = append(ss, sample{at: to.Add(time.Second), v: 1000}) // outside the window
	if got := slicePercentile(ss, from, to, 5, 99); got != 1.98 {
		t.Errorf("slice-median p99 = %v, want 1.98", got)
	}
	if got := percentile(values(ss), 99); got != 50 {
		t.Errorf("plain p99 = %v, want the spike 50", got)
	}
}
