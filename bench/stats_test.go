package main

import (
	"math"
	"slices"
	"testing"
)

func TestPercentile(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // descending, to check the input is sorted
		}
		return xs
	}
	for _, tc := range []struct {
		xs         []float64
		p          float64
		want       float64
		wantBeyond int
	}{
		{seq(10), 50, 5.5, 5},
		{seq(10), 90, 9.1, 1},
		{seq(100), 90, 90.1, 10},
		{seq(100), 50, 50.5, 50},
		{[]float64{7}, 90, 7, 0},
		{[]float64{3, 3, 3}, 50, 3, 0},
	} {
		in := slices.Clone(tc.xs)
		got, beyond := percentile(tc.xs, tc.p)
		if math.Abs(got-tc.want) > 1e-9 || beyond != tc.wantBeyond {
			t.Errorf("percentile(%d samples, %v) = %v with %d beyond, want %v with %d",
				len(tc.xs), tc.p, got, beyond, tc.want, tc.wantBeyond)
		}
		if !slices.Equal(in, tc.xs) {
			t.Errorf("percentile modified its input")
		}
	}
	if v, n := percentile(nil, 50); !math.IsNaN(v) || n != 0 {
		t.Errorf("percentile(nil) = %v, %d; want NaN, 0", v, n)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of 1..4 = %v, want 2.5", got)
	}
	if got := median([]float64{9, 1, 5}); got != 5 {
		t.Errorf("median of {9,1,5} = %v, want 5", got)
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{1, 100}, 10},
		{[]float64{2, 8}, 4},
		{[]float64{5}, 5},
		{[]float64{1, 10, 100}, 10},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-9*tc.want {
			t.Errorf("geomean(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	for _, xs := range [][]float64{nil, {1, 0}, {2, -1}} {
		if got := geomean(xs); !math.IsNaN(got) {
			t.Errorf("geomean(%v) = %v, want NaN", xs, got)
		}
	}
}
