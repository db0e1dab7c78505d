package core

import (
	"cmp"
	"slices"

	"opaq/internal/merge"
	"opaq/internal/selection"
)

// StreamBuilder ingests elements one at a time (or in arbitrary batches)
// and maintains an OPAQ summary over everything seen so far. It is the
// push-based counterpart of Build for callers that do not have their data
// behind a RunReader — e.g. a metrics pipeline observing latencies.
//
// Internally it buffers up to RunLen elements; each full buffer becomes
// one run and is sampled exactly as the pull-based sample phase would, so
// Summary() equals running Build over the same element sequence at any
// Config.Workers setting. The buffered tail (a partial run) is folded in
// on Summary() with the same ragged-run accounting Build uses.
//
// # Cost model
//
// The buffered run is kept as a sorted prefix plus an unsorted suffix of
// the keys added since the last cut. Summary() sorts only that suffix,
// merges it into the prefix in one linear pass (pool-drawn scratch) and
// reads the tail's regular samples at stride Step: O(u log u + t) for u
// new keys and a tail of t < RunLen keys, instead of re-selecting the
// whole tail, plus the merge of the per-run sample lists. A full run
// whose prefix is empty (no Summary() since it started: pure ingest)
// is sampled by in-place multi-selection, O(RunLen log s), as Build does;
// one with a sorted prefix is finished by the same sort-and-merge path.
//
// Regular samples are exact order statistics of their run, so the path
// taken never changes a sample's value: summaries are identical whether
// or not intermediate Summary() calls were made. For floating-point keys
// "identical" means equal under ==: +0 and −0 compare equal and either
// may land at a given rank, so the encoded bytes of such a sample can
// differ. NaN has no rank at all and must not be added.
//
// # Sealing
//
// For epoch-based lifecycles (a serving engine aging summaries out of its
// merge set), Seal detaches everything that has completed a whole run into
// an immutable Summary and resets the builder's run state, while the
// in-progress partial run stays buffered and flows into the next epoch.
// Because a seal never cuts a run, the multiset of per-run sample lists —
// and therefore the merge of all sealed summaries plus Summary() — is
// identical to never having sealed at all.
type StreamBuilder[T cmp.Ordered] struct {
	cfg Config
	buf []T
	// sorted is the length of buf's sorted prefix: the keys already
	// ordered by an earlier Summary() of this run.
	sorted int

	// State of whole runs flushed since the last Seal.
	lists    [][]T // per-run sorted sample lists
	runs     int64 // whole runs
	runN     int64 // elements in those runs (runs·RunLen)
	leftover int64 // elements of those runs not covered by a sub-run
	runMin   T     // extrema over those runs; valid when runs > 0
	runMax   T

	// Extrema of the buffered partial run; valid when len(buf) > 0.
	bufMin, bufMax T
}

// NewStreamBuilder returns a streaming builder for the given config.
func NewStreamBuilder[T cmp.Ordered](cfg Config) (*StreamBuilder[T], error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &StreamBuilder[T]{
		cfg: cfg,
		buf: make([]T, 0, cfg.RunLen),
	}, nil
}

// Add observes one element. Amortized cost is O(log s) per element.
func (b *StreamBuilder[T]) Add(v T) error {
	if len(b.buf) == 0 {
		b.bufMin, b.bufMax = v, v
	} else {
		if v < b.bufMin {
			b.bufMin = v
		}
		if v > b.bufMax {
			b.bufMax = v
		}
	}
	b.buf = append(b.buf, v)
	if len(b.buf) == b.cfg.RunLen {
		return b.flush()
	}
	return nil
}

// AddBatch observes a batch of elements. It is equivalent to calling Add
// per element but copies run-sized chunks into the buffer wholesale, so
// the per-element cost is one extrema comparison plus the memmove — on
// the wire-speed ingest path the per-call overhead of Add is measurable.
func (b *StreamBuilder[T]) AddBatch(vs []T) error {
	for len(vs) > 0 {
		if len(b.buf) == 0 {
			b.bufMin, b.bufMax = vs[0], vs[0]
		}
		take := min(b.cfg.RunLen-len(b.buf), len(vs))
		chunk := vs[:take]
		lo, hi := b.bufMin, b.bufMax
		for _, v := range chunk {
			if v < lo {
				lo = v
			} else if v > hi {
				hi = v
			}
		}
		b.bufMin, b.bufMax = lo, hi
		b.buf = append(b.buf, chunk...)
		vs = vs[take:]
		if len(b.buf) == b.cfg.RunLen {
			if err := b.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

// N returns the number of elements the builder currently holds: whole runs
// not yet detached by Seal, plus the buffered partial run. Before any Seal
// this is everything observed since creation.
func (b *StreamBuilder[T]) N() int64 { return b.runN + int64(len(b.buf)) }

// Buffered returns the size of the in-progress partial run — the elements
// a Seal would leave behind for the next epoch.
func (b *StreamBuilder[T]) Buffered() int { return len(b.buf) }

// sortBuf sorts the buffered run in place: it sorts only the keys added
// since the last cut and merges them into the sorted prefix in one linear
// pass, with scratch for the fresh keys alone. Keys that arrive in order
// skip the merge.
func (b *StreamBuilder[T]) sortBuf() {
	if b.sorted == len(b.buf) {
		return
	}
	fresh := b.buf[b.sorted:]
	slices.Sort(fresh)
	if i := b.sorted - 1; i >= 0 && fresh[0] < b.buf[i] {
		// Merge from the back: the fresh keys move to scratch, and the
		// write cursor k = i+j+1 never passes the prefix's read cursor i.
		// A tie places the fresh key last, as a forward merge would.
		scratch := append(getSamples[T](len(fresh)), fresh...)
		j := len(scratch) - 1
		for k := len(b.buf) - 1; j >= 0; k-- {
			if i >= 0 && scratch[j] < b.buf[i] {
				b.buf[k] = b.buf[i]
				i--
			} else {
				b.buf[k] = scratch[j]
				j--
			}
		}
		putSamples(scratch)
	}
	b.sorted = len(b.buf)
}

// regularSamples appends the buffered run's regular samples — the keys of
// rank step−1, 2·step−1, … — to dst. The buffer must be sorted.
func (b *StreamBuilder[T]) regularSamples(dst []T) []T {
	step := b.cfg.Step()
	for r := step - 1; r < len(b.buf); r += step {
		dst = append(dst, b.buf[r])
	}
	return dst
}

// flush samples the buffered run, folds it into the whole-run state and
// clears the buffer.
func (b *StreamBuilder[T]) flush() error {
	step := b.cfg.Step()
	si := len(b.buf) / step
	b.leftover += int64(len(b.buf) - si*step)
	b.runN += int64(len(b.buf))
	if b.runs == 0 {
		b.runMin, b.runMax = b.bufMin, b.bufMax
	} else {
		if b.bufMin < b.runMin {
			b.runMin = b.bufMin
		}
		if b.bufMax > b.runMax {
			b.runMax = b.bufMax
		}
	}
	b.runs++
	if si > 0 {
		var samples []T
		if b.sorted > 0 {
			// A Summary() already sorted part of this run: finishing the
			// sort reuses that work instead of selecting over it again.
			b.sortBuf()
			samples = b.regularSamples(make([]T, 0, si))
		} else {
			ranks := make([]int, si)
			for k := 1; k <= si; k++ {
				ranks[k-1] = k*step - 1
			}
			var err error
			if samples, err = selection.MultiSelect(b.buf, ranks); err != nil {
				return err
			}
		}
		b.lists = append(b.lists, samples)
	}
	// Either path leaves a fresh sample list, so the run buffer is dead
	// here and can be refilled in place.
	b.buf = b.buf[:0]
	b.sorted = 0
	return nil
}

// Seal detaches the whole runs accumulated since the previous Seal as an
// immutable Summary and resets the builder's run state. The buffered
// partial run is NOT included — it stays in the builder, keeps filling
// toward RunLen, and belongs to whatever summary is cut next — so sealing
// never splits a run and the concatenation of sealed summaries plus a
// final Summary() covers exactly the observed sequence with exactly the
// run composition an unsealed builder would have had.
//
// When no whole run has completed since the last Seal, the canonical empty
// summary is returned (N() == 0) and the builder is unchanged.
func (b *StreamBuilder[T]) Seal() *Summary[T] {
	if b.runs == 0 {
		return emptySummary[T](int64(b.cfg.Step()))
	}
	total := 0
	for _, l := range b.lists {
		total += len(l)
	}
	s := &Summary[T]{
		samples:  merge.KWayInto(getSamples[T](total), b.lists),
		step:     int64(b.cfg.Step()),
		runs:     b.runs,
		n:        b.runN,
		leftover: b.leftover,
		min:      b.runMin,
		max:      b.runMax,
	}
	var zero T
	b.lists, b.runs, b.runN, b.leftover = nil, 0, 0, 0
	b.runMin, b.runMax = zero, zero
	return s
}

// Summary returns the summary over everything the builder currently holds
// (see N). The builder remains usable afterwards; the buffered partial run
// is consumed as a (ragged) run of its own, exactly as Build treats a
// short final run. Summary reorders the buffered run (it stays sorted for
// the next cut), so it needs the same exclusive access as Add.
func (b *StreamBuilder[T]) Summary() (*Summary[T], error) {
	if b.N() == 0 {
		// Identical to Build over an empty reader: the canonical empty
		// summary (ErrEmpty from Bounds, zero-valued extrema), not an error.
		return emptySummary[T](int64(b.cfg.Step())), nil
	}
	// Fold the tail into a copy of the state so ingestion can continue.
	lists := b.lists
	runs, leftover := b.runs, b.leftover
	minV, maxV := b.runMin, b.runMax
	if runs == 0 {
		minV, maxV = b.bufMin, b.bufMax
	}
	step := b.cfg.Step()
	si := len(b.buf) / step
	if len(b.buf) > 0 {
		leftover += int64(len(b.buf) - si*step)
		runs++
		if b.bufMin < minV {
			minV = b.bufMin
		}
		if b.bufMax > maxV {
			maxV = b.bufMax
		}
	}
	total := si
	for _, l := range lists {
		total += len(l)
	}
	samples := getSamples[T](total)
	var tail []T
	if si > 0 {
		b.sortBuf()
		// The tail's sample list is scratch: the merge below copies it,
		// so it goes straight back to the pool.
		tail = b.regularSamples(getSamples[T](si))
		lists = append(lists[:len(lists):len(lists)], tail)
	}
	samples = merge.KWayInto(samples, lists)
	putSamples(tail)
	return &Summary[T]{
		samples:  samples,
		step:     int64(step),
		runs:     runs,
		n:        b.N(),
		leftover: leftover,
		min:      minV,
		max:      maxV,
	}, nil
}
