package main

import (
	"fmt"
	"sort"
	"strconv"
)

// oracle answers exact rank queries over a multiset of int64 keys. It
// holds the sorted distinct values with cumulative counts, so its memory
// grows with the number of distinct keys, never with the stream length.
type oracle struct {
	vals []int64
	cum  []int64 // cum[i] = number of elements ≤ vals[i]
}

// weighted is one key with a multiplicity.
type weighted struct{ v, w int64 }

// newOracle builds the oracle over items (reordered in place); entries
// with equal keys are summed and zero weights dropped.
func newOracle(items []weighted) *oracle {
	sort.Slice(items, func(i, j int) bool { return items[i].v < items[j].v })
	o := &oracle{}
	var total int64
	for _, it := range items {
		if it.w == 0 {
			continue
		}
		total += it.w
		if k := len(o.vals); k > 0 && o.vals[k-1] == it.v {
			o.cum[k-1] = total
			continue
		}
		o.vals = append(o.vals, it.v)
		o.cum = append(o.cum, total)
	}
	return o
}

// countOracle builds the oracle from per-key counts.
func countOracle(counts map[int64]int64) *oracle {
	items := make([]weighted, 0, len(counts))
	for v, w := range counts {
		items = append(items, weighted{v, w})
	}
	return newOracle(items)
}

// n is the multiset's size.
func (o *oracle) n() int64 {
	if len(o.cum) == 0 {
		return 0
	}
	return o.cum[len(o.cum)-1]
}

// rankLE is the number of elements ≤ x.
func (o *oracle) rankLE(x int64) int64 {
	i := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] > x })
	if i == 0 {
		return 0
	}
	return o.cum[i-1]
}

// rankLT is the number of elements < x.
func (o *oracle) rankLT(x int64) int64 {
	i := sort.Search(len(o.vals), func(i int) bool { return o.vals[i] >= x })
	if i == 0 {
		return 0
	}
	return o.cum[i-1]
}

// atRank is the element of 1-based rank r (1 ≤ r ≤ n).
func (o *oracle) atRank(r int64) int64 {
	i := sort.Search(len(o.cum), func(i int) bool { return o.cum[i] >= r })
	return o.vals[i]
}

// phiRank is ψ = ⌈φ·n⌉ clamped to [1, n], the rank the engine answers
// a φ-quantile for.
func phiRank(phi float64, n int64) int64 {
	r := int64(phi * float64(n))
	if float64(r) < phi*float64(n) {
		r++
	}
	return min(max(r, 1), n)
}

// rankErr is the rank error of one enclosure as a fraction of n: the
// larger of the element counts strictly between each bound and the true
// rank-psi value, the quantity the paper's Lemmas 1 and 2 bound by n/s.
// Over q−1 equally spaced quantiles its maximum is the paper's RER_N
// rescaled from n/q to n; unlike RER_A it does not count the bounds' own
// duplicates, so heavy keys do not swamp it. covered reports whether the
// enclosure holds the true value.
func (o *oracle) rankErr(psi, lo, hi int64) (err float64, covered bool) {
	truth := o.atRank(psi)
	if lo > truth || truth > hi {
		return 0, false
	}
	below := o.rankLT(truth) - o.rankLE(lo)
	above := o.rankLT(hi) - o.rankLE(truth)
	return float64(max(below, above, 0)) / float64(o.n()), true
}

// checker accumulates enclosure checks for one run.
type checker struct {
	checked int
	misses  int
	rerMax  float64
	first   error
}

// enclosure checks one answer of the φ-quantile against o. Bounds
// arrive as the decimal strings the server formats keys with.
func (c *checker) enclosure(o *oracle, phi float64, lower, upper string) {
	lo, err1 := strconv.ParseInt(lower, 10, 64)
	hi, err2 := strconv.ParseInt(upper, 10, 64)
	c.checked++
	if err1 != nil || err2 != nil {
		c.miss(fmt.Errorf("unparsable enclosure [%q, %q]", lower, upper))
		return
	}
	rer, ok := o.rankErr(phiRank(phi, o.n()), lo, hi)
	if !ok {
		c.miss(fmt.Errorf("phi=%g: enclosure [%d, %d] misses the rank-%d element %d",
			phi, lo, hi, phiRank(phi, o.n()), o.atRank(phiRank(phi, o.n()))))
		return
	}
	c.rerMax = max(c.rerMax, rer)
}

func (c *checker) miss(err error) {
	c.misses++
	if c.first == nil {
		c.first = err
	}
}
