package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	vs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, tc := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {99, 10}, {10, 1}, {100, 10}, {0.1, 1},
	} {
		if got := percentile(vs, tc.p); got != tc.want {
			t.Errorf("percentile(p%g) = %g, want %g", tc.p, got, tc.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of no samples = %g, want 0", got)
	}
	if vs[0] != 5 {
		t.Error("percentile sorted its input in place")
	}
}

func TestTailRuleNeedsTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5, 50},    // too few for anything but the median
		{19, 50},   // p50 leaves 9 beyond
		{20, 50},   // p50 leaves exactly 10, p75 only 5
		{40, 75},   // p75 leaves 10
		{100, 90},  // p90 leaves 10
		{199, 90},  // p95 leaves 9
		{200, 95},  // p95 leaves 10
		{1000, 99}, // p99 leaves 10
		{9999, 99}, // p99.9 leaves 9
		{10000, 99.9},
	} {
		if got := tailPercentile(tc.n, 10); got != tc.want {
			t.Errorf("tailPercentile(%d) = p%g, want p%g", tc.n, got, tc.want)
		}
		if p := tailPercentile(tc.n, 10); tc.n >= 20 && beyond(tc.n, p) < 10 {
			t.Errorf("n=%d: p%g leaves %d beyond, want >= 10", tc.n, p, beyond(tc.n, p))
		}
	}
}

func TestMedianAndQuartilesMatchPython(t *testing.T) {
	// Reference values from Python:
	//   statistics.median(v), statistics.quantiles(v, n=4)
	for _, tc := range []struct {
		vs         []float64
		med        float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 5.5, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 2, 1, 2, 3},
		{[]float64{7, 1}, 4, -0.5, 4, 8.5},
		{[]float64{2.5, 9, 4, 4, 1, 12, 8}, 4, 2.5, 4, 9},
	} {
		if got := median(tc.vs); got != tc.med {
			t.Errorf("median(%v) = %g, want %g", tc.vs, got, tc.med)
		}
		q1, q2, q3 := quartiles(tc.vs)
		for i, pair := range [][2]float64{{q1, tc.q1}, {q2, tc.q2}, {q3, tc.q3}} {
			if math.Abs(pair[0]-pair[1]) > 1e-12 {
				t.Errorf("quartiles(%v)[%d] = %g, want %g", tc.vs, i, pair[0], pair[1])
			}
		}
	}
}
