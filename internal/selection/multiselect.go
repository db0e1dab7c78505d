package selection

import (
	"cmp"
	"fmt"
	"sort"
)

// MultiSelect reorders xs so that, for every requested 0-based rank k in
// ranks, xs[k] holds the element of rank k, and returns the selected values
// in the order the ranks were given. ranks need not be sorted or distinct.
//
// This is the multi-selection primitive of the paper's sample phase
// (Section 2.1): rather than running an independent selection per rank, the
// slice is recursively split at the median rank of the remaining targets, so
// each level of recursion does linear work over disjoint ranges and there
// are at most ⌈log₂ len(ranks)⌉+1 levels — O(m log s) in total for s ranks
// over a run of m elements. Each split is a Floyd–Rivest selection
// (floydRivestInPlace), whose single near-target partition pass per level
// keeps the constant close to one comparison per element per level.
func MultiSelect[T cmp.Ordered](xs []T, ranks []int) ([]T, error) {
	for _, k := range ranks {
		if k < 0 || k >= len(xs) {
			return nil, fmt.Errorf("%w: k=%d, len=%d", ErrRankOutOfRange, k, len(xs))
		}
	}
	if len(ranks) == 0 {
		return nil, nil
	}
	sorted := make([]int, len(ranks))
	copy(sorted, ranks)
	sort.Ints(sorted)
	sorted = dedupInts(sorted)

	multiSelect(xs, 0, len(xs), sorted)

	out := make([]T, len(ranks))
	for i, k := range ranks {
		out[i] = xs[k]
	}
	return out, nil
}

// RegularRanks returns the s regular-sampling ranks of a run of m elements:
// the 0-based ranks of the elements at relative indices m/s, 2m/s, ..., m
// (paper, Section 2.1). m must be divisible by s; the paper makes the same
// assumption ("without loss of generality") and the run reader pads or
// truncates runs so this holds.
func RegularRanks(m, s int) ([]int, error) {
	if s <= 0 || m <= 0 {
		return nil, fmt.Errorf("selection: RegularRanks requires m>0 and s>0, got m=%d s=%d", m, s)
	}
	if m%s != 0 {
		return nil, fmt.Errorf("selection: RegularRanks requires s | m, got m=%d s=%d", m, s)
	}
	step := m / s
	ranks := make([]int, s)
	for i := 1; i <= s; i++ {
		ranks[i-1] = i*step - 1 // rank of the (i*m/s)-th smallest, 0-based
	}
	return ranks, nil
}

// RegularSample reorders run and returns its s regular sample points in
// ascending order: sample i is the element of local rank i*m/s (1-based),
// so each sample point closes a "sub-run" of m/s elements that are all ≤ it
// and ≥ the previous sample point. This is the per-run work of the sample
// phase; it costs O(m log s).
func RegularSample[T cmp.Ordered](run []T, s int) ([]T, error) {
	ranks, err := RegularRanks(len(run), s)
	if err != nil {
		return nil, err
	}
	return MultiSelect(run, ranks)
}

// multiSelect recursively partitions xs[lo:hi) around the median target
// rank. targets is sorted, deduplicated, and every entry lies in [lo, hi).
func multiSelect[T cmp.Ordered](xs []T, lo, hi int, targets []int) {
	for len(targets) > 0 {
		if len(targets) == 1 {
			floydRivestInPlace(xs, lo, hi, targets[0])
			return
		}
		mid := targets[len(targets)/2]
		floydRivestInPlace(xs, lo, hi, mid)
		// xs[mid] now has exact rank mid; ranks below it live in [lo, mid),
		// ranks above it in (mid, hi). Split the target list accordingly and
		// recurse on the smaller side, looping on the larger (tail-call
		// elimination keeps stack depth at O(log s)).
		split := sort.SearchInts(targets, mid)
		left := targets[:split]
		right := targets[split:]
		if len(right) > 0 && right[0] == mid {
			right = right[1:]
		}
		if len(left) <= len(right) {
			multiSelect(xs, lo, mid, left)
			lo = mid + 1
			targets = right
		} else {
			multiSelect(xs, mid+1, hi, right)
			hi = mid
			targets = left
		}
	}
}

// dedupInts removes adjacent duplicates from a sorted int slice, in place.
func dedupInts(xs []int) []int {
	if len(xs) == 0 {
		return xs
	}
	out := xs[:1]
	for _, x := range xs[1:] {
		if x != out[len(out)-1] {
			out = append(out, x)
		}
	}
	return out
}
