// Package selection implements linear-time selection (order statistics)
// and the multi-selection routine used by OPAQ's sample phase.
//
// Select is the SELECT algorithm of Floyd and Rivest ([FR75] in the
// paper): expected n + min(k, n−k) + o(n) comparisons. When its partition
// rounds keep landing far from the target (adversarial or
// duplicate-pathological input), it hands the remaining window to the
// deterministic median-of-medians algorithm of Blum, Floyd, Pratt, Rivest
// and Tarjan ([ea72]), so the worst case stays O(n). SelectDeterministic
// runs [ea72] alone.
//
// Multi-selection is built by recursive median splitting: to extract the
// s regular sample ranks m/s, 2m/s, ..., m from a run of m elements,
// select the median, split, and recurse on both halves for log s levels,
// giving O(m log s) total work (Section 2.1 of the paper).
//
// No randomness is involved: every function is a pure function of its
// input. All functions operate in place and reorder their input slice.
package selection

import (
	"cmp"
	"errors"
	"fmt"
	"sort"
)

// ErrRankOutOfRange is returned (wrapped) when a requested rank does not lie
// inside the slice being selected from.
var ErrRankOutOfRange = errors.New("selection: rank out of range")

// Select partially reorders xs so that xs[k] holds the element of rank k
// (0-based: k = 0 is the minimum) and returns that element, using the
// Floyd–Rivest algorithm with a median-of-medians fallback (see the
// package doc): expected ~n + min(k, n−k) comparisons, O(len(xs)) worst
// case.
func Select[T cmp.Ordered](xs []T, k int) (T, error) {
	var zero T
	if k < 0 || k >= len(xs) {
		return zero, fmt.Errorf("%w: k=%d, len=%d", ErrRankOutOfRange, k, len(xs))
	}
	floydRivestInPlace(xs, 0, len(xs), k)
	return xs[k], nil
}

// SelectDeterministic selects with the median-of-medians pivot rule from
// the first iteration, guaranteeing O(len(xs)) worst-case time
// regardless of input order. It is the algorithm of [ea72] as described in
// Section 2.1 of the paper.
func SelectDeterministic[T cmp.Ordered](xs []T, k int) (T, error) {
	var zero T
	if k < 0 || k >= len(xs) {
		return zero, fmt.Errorf("%w: k=%d, len=%d", ErrRankOutOfRange, k, len(xs))
	}
	selectInPlaceDeterministic(xs, 0, len(xs), k)
	return xs[k], nil
}

// smallCutoff is the subproblem size below which selection falls back to
// insertion sort; small enough to keep worst-case linearity, large enough to
// amortize the partitioning overhead.
const smallCutoff = 24

// insertionSort sorts xs in place; used only for tiny subproblems.
func insertionSort[T cmp.Ordered](xs []T) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// medianOfMediansPivot implements the BFPRT pivot rule on xs[lo:hi]: split
// into groups of five, take each group's median, and recursively select the
// median of those medians. The group medians are compacted into the prefix
// xs[lo:lo+numGroups] so the recursion operates in place; this reorders the
// range but partition3 immediately re-partitions it, preserving selection
// semantics. Returns the index of the chosen pivot.
func medianOfMediansPivot[T cmp.Ordered](xs []T, lo, hi int) int {
	n := hi - lo
	if n <= 5 {
		insertionSort(xs[lo:hi])
		return lo + n/2
	}
	numGroups := 0
	for g := lo; g < hi; g += 5 {
		end := g + 5
		if end > hi {
			end = hi
		}
		insertionSort(xs[g:end])
		median := g + (end-g)/2
		xs[lo+numGroups], xs[median] = xs[median], xs[lo+numGroups]
		numGroups++
	}
	// Recursively place the median of medians at its rank within the prefix.
	mid := lo + (numGroups-1)/2
	selectInPlaceDeterministic(xs, lo, lo+numGroups, mid)
	return mid
}

// selectInPlaceDeterministic is the recursive worker behind
// medianOfMediansPivot: it reorders xs[lo:hi) so xs[k] has rank k-lo within
// that range, using the deterministic pivot rule throughout.
func selectInPlaceDeterministic[T cmp.Ordered](xs []T, lo, hi, k int) {
	for {
		if hi-lo <= smallCutoff {
			insertionSort(xs[lo:hi])
			return
		}
		pivot := medianOfMediansPivot(xs, lo, hi)
		lt, gt := partition3(xs, lo, hi, pivot)
		switch {
		case k < lt:
			hi = lt
		case k >= gt:
			lo = gt
		default:
			return
		}
	}
}

// partition3 performs a three-way (Dutch national flag) partition of
// xs[lo:hi) around the value at index pivot. On return, xs[lo:lt) < pivot
// value, xs[lt:gt) == pivot value, and xs[gt:hi) > pivot value. Three-way
// partitioning is essential for the paper's workloads, which contain n/10
// duplicate keys: a two-way partition degrades to quadratic time on heavy
// duplicates.
func partition3[T cmp.Ordered](xs []T, lo, hi, pivot int) (lt, gt int) {
	pv := xs[pivot]
	lt, gt = lo, hi
	i := lo
	for i < gt {
		switch {
		case xs[i] < pv:
			xs[i], xs[lt] = xs[lt], xs[i]
			lt++
			i++
		case xs[i] > pv:
			gt--
			xs[i], xs[gt] = xs[gt], xs[i]
		default:
			i++
		}
	}
	return lt, gt
}

// sortedCopy returns a sorted copy of xs; shared test/reference helper.
func sortedCopy[T cmp.Ordered](xs []T) []T {
	out := make([]T, len(xs))
	copy(out, xs)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
