// Package merge provides k-way merging of sorted sequences.
//
// OPAQ's sample phase produces one sorted sample list per run; the r lists
// (and, in the parallel formulation, the p per-processor lists) are merged
// into a single sorted sample list of size r·s. The paper charges this step
// O(r·s·log r) (Table 2), which is exactly the cost of the tournament-heap
// merge implemented here.
package merge

import (
	"cmp"
	"errors"
	"slices"
)

// ErrUnsorted is returned by validating entry points when an input list is
// found to be out of order.
var ErrUnsorted = errors.New("merge: input list is not sorted")

// KWay merges the sorted slices in lists into a single sorted slice using a
// binary tournament heap: O(N log k) comparisons for N total elements across
// k lists. Input slices are not modified. Ties are broken by list index, so
// the merge is stable across lists.
func KWay[T cmp.Ordered](lists [][]T) []T {
	return KWayInto(nil, lists)
}

// KWayInto is KWay appending into dst, so a caller that recycles merge
// buffers (sync.Pool or an arena) avoids the per-merge output allocation.
// dst is grown once up-front; the merged elements never alias the inputs,
// even in the single-list fast path, which copies. Exactly two non-empty
// lists take a linear two-way merge instead of the heap — one comparison
// per element rather than O(log k) — with the same tie order (the earlier
// list first); it is the package's one two-way merge loop.
func KWayInto[T cmp.Ordered](dst []T, lists [][]T) []T {
	total := 0
	nonEmpty := 0
	var a, b []T // the first two non-empty lists, in list order
	for _, l := range lists {
		total += len(l)
		if len(l) > 0 {
			nonEmpty++
			if a == nil {
				a = l
			} else if b == nil {
				b = l
			}
		}
	}
	dst = slices.Grow(dst, total)
	switch nonEmpty {
	case 0:
		return dst
	case 1:
		return append(dst, a...)
	case 2:
		i, j := 0, 0
		for i < len(a) && j < len(b) {
			if b[j] < a[i] {
				dst = append(dst, b[j])
				j++
			} else {
				dst = append(dst, a[i])
				i++
			}
		}
		dst = append(dst, a[i:]...)
		return append(dst, b[j:]...)
	}
	lt := newMergeHeap(lists)
	for {
		v, ok := lt.pop()
		if !ok {
			return dst
		}
		dst = append(dst, v)
	}
}

// KWayValidated is KWay but first verifies each input is sorted, returning
// ErrUnsorted (wrapped) naming the offending list otherwise.
func KWayValidated[T cmp.Ordered](lists [][]T) ([]T, error) {
	for i, l := range lists {
		if !IsSorted(l) {
			return nil, &unsortedError{list: i}
		}
	}
	return KWay(lists), nil
}

type unsortedError struct{ list int }

func (e *unsortedError) Error() string {
	return "merge: input list " + itoa(e.list) + " is not sorted"
}
func (e *unsortedError) Unwrap() error { return ErrUnsorted }

// IsSorted reports whether xs is in non-decreasing order.
func IsSorted[T cmp.Ordered](xs []T) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] < xs[i-1] {
			return false
		}
	}
	return true
}

// Split merges two sorted blocks of equal length and returns the low or
// high half — the merge-split primitive that replaces compare-exchange when
// a bitonic sorting network operates on blocks instead of scalars (paper,
// Section 3.1; the parallel formulation's bitonic global merge). Both
// halves of a merge-split are recovered by calling Split twice, once with
// each keepLow value; inputs are not modified.
func Split[T cmp.Ordered](a, b []T, keepLow bool) []T {
	n := len(a)
	out := make([]T, n)
	if keepLow {
		i, j := 0, 0
		for k := 0; k < n; k++ {
			if j >= len(b) || (i < len(a) && a[i] <= b[j]) {
				out[k] = a[i]
				i++
			} else {
				out[k] = b[j]
				j++
			}
		}
		return out
	}
	i, j := len(a)-1, len(b)-1
	for k := n - 1; k >= 0; k-- {
		if j < 0 || (i >= 0 && a[i] > b[j]) {
			out[k] = a[i]
			i--
		} else {
			out[k] = b[j]
			j--
		}
	}
	return out
}

// Two merges two sorted slices; the common r=2 and pairwise-merge case.
// Ties take a's element first.
func Two[T cmp.Ordered](a, b []T) []T {
	return KWayInto(make([]T, 0, len(a)+len(b)), [][]T{a, b})
}

// mergeHeap is a binary min-heap of list cursors keyed by each list's current
// head element, with ties broken by list index so the merge is stable
// across lists. pop returns the next smallest element in O(log k).
type mergeHeap[T cmp.Ordered] struct {
	lists  [][]T
	cursor []int // next unread position in each list
	heap   []int // list indices, heap-ordered by current head
}

func newMergeHeap[T cmp.Ordered](lists [][]T) *mergeHeap[T] {
	lt := &mergeHeap[T]{
		lists:  lists,
		cursor: make([]int, len(lists)),
	}
	for i, l := range lists {
		if len(l) > 0 {
			lt.heap = append(lt.heap, i)
		}
	}
	for i := len(lt.heap)/2 - 1; i >= 0; i-- {
		lt.siftDown(i)
	}
	return lt
}

// less orders heap positions i, j by the current head of their lists.
func (lt *mergeHeap[T]) less(i, j int) bool {
	a, b := lt.heap[i], lt.heap[j]
	av, bv := lt.lists[a][lt.cursor[a]], lt.lists[b][lt.cursor[b]]
	if av != bv {
		return av < bv
	}
	return a < b
}

func (lt *mergeHeap[T]) siftDown(i int) {
	n := len(lt.heap)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && lt.less(l, smallest) {
			smallest = l
		}
		if r < n && lt.less(r, smallest) {
			smallest = r
		}
		if smallest == i {
			return
		}
		lt.heap[i], lt.heap[smallest] = lt.heap[smallest], lt.heap[i]
		i = smallest
	}
}

// pop removes and returns the smallest remaining element.
func (lt *mergeHeap[T]) pop() (T, bool) {
	var zero T
	if len(lt.heap) == 0 {
		return zero, false
	}
	w := lt.heap[0]
	v := lt.lists[w][lt.cursor[w]]
	lt.cursor[w]++
	if lt.cursor[w] >= len(lt.lists[w]) {
		last := len(lt.heap) - 1
		lt.heap[0] = lt.heap[last]
		lt.heap = lt.heap[:last]
	}
	if len(lt.heap) > 0 {
		lt.siftDown(0)
	}
	return v, true
}

// itoa is a tiny strconv.Itoa to keep the error path allocation-free in the
// common case; inputs are small non-negative list indices.
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
