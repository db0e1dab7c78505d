package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile's rank for the percentile to be supported by the data.
const minBeyond = 10

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of sorted
// values and whether at least minBeyond samples lie beyond its rank.
// A p99 therefore needs at least 1000 samples.
func percentile(sorted []float64, p float64) (v float64, ok bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle value of values (mean of the two middle ones for
// an even count), as Python's statistics.median computes it.
func median(values []float64) float64 {
	s := sortedCopy(values)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles of values by the
// exclusive method of Python's statistics.quantiles(values, n=4), the
// rule the steadiness check is defined with. It needs two or more values.
func quartiles(values []float64) (q1, q3 float64) {
	s := sortedCopy(values)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return at(1), at(3)
}

// spread is the interquartile distance of values as a share of their
// median: the run-to-run noise a bound must exceed.
func spread(values []float64) float64 {
	med := median(values)
	if med == 0 {
		return 0
	}
	q1, q3 := quartiles(values)
	return (q3 - q1) / math.Abs(med)
}

func sortedCopy(values []float64) []float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return s
}

// latencies collects one operation class's latencies in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(ms float64) { l.ms = append(l.ms, ms) }

func (l *latencies) count() int { return len(l.ms) }

// p returns the p-quantile and whether it has minBeyond samples beyond.
func (l *latencies) p(q float64) (float64, bool) {
	return percentile(sortedCopy(l.ms), q)
}
