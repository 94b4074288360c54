package main

import (
	"math"
	"sort"
)

// median returns the middle of values (mean of the two middle ones for
// an even count), 0 for none. values is not modified.
func median(values []float64) float64 {
	return percentile(values, 50)
}

// percentile returns the p-th percentile of values by linear
// interpolation between closest ranks, 0 for none.
func percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

func sortedPercentile(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// nsPercentile is percentile over integer nanosecond samples, in
// microseconds.
func nsPercentile(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := make([]float64, len(ns))
	for i, v := range ns {
		s[i] = float64(v) / 1e3
	}
	sort.Float64s(s)
	return sortedPercentile(s, p)
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(values, n=4) does (the "exclusive" method), which
// is what the acceptance driver computes spreads from. It needs at
// least two values.
func quartiles(values []float64) (q1, q3 float64) {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	m := len(s)
	if m < 2 {
		if m == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4 // outside [0, 4] at the clamped ends: Python extrapolates there too
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}
