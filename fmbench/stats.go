package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns vs sorted ascending, leaving vs untouched.
func sortedCopy(vs []float64) []float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank percentile of vs (p in (0,100]): the
// smallest sample with at least p% of the samples at or below it. It
// returns 0 for no samples.
func percentile(vs []float64, p float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small slack keeps float error (99.9/100*10000 = 9990.000000000002) from
// moving an exact rank up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// beyond counts the samples strictly above the nearest-rank percentile p
// among n samples.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// tailPercentile is the highest ladder percentile with at least minBeyond
// samples above it among n samples; the median when none qualifies.
func tailPercentile(n, minBeyond int) float64 {
	for _, p := range tailLadder {
		if beyond(n, p) >= minBeyond {
			return p
		}
	}
	return 50
}

// median is the middle of vs (the mean of the two middle samples for an
// even count); 0 for no samples.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := sortedCopy(vs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the three cut points of vs the way Python's
// statistics.quantiles(vs, n=4) computes them (the default "exclusive"
// method). It needs at least two samples.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(vs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		j = min(max(j, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// ms and us convert durations to float milliseconds and microseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// durationsMs converts a duration slice to milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
