package core

import (
	"bufio"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"opaq/internal/runio"
)

// Summary persistence. The paper's incremental story (Section 4) requires
// keeping the sorted samples between ingest sessions: "if the sorted
// samples are kept from the runs of the old data, one need only compute
// the sorted samples from the new runs and merge with the old sorted
// samples". SaveSummary / LoadSummary serialize a Summary to a compact
// binary format so a long-lived pipeline can checkpoint its quantile state.
//
// Format (little-endian):
//
//	offset size field
//	0      8    magic "OPAQSUM\x01"
//	8      2    codec kind
//	10     2    element size
//	12     4    reserved
//	16     8    step
//	24     8    runs
//	32     8    n
//	40     8    leftover
//	48     8    sample count
//	56     ...  min, max, then samples, each element-size bytes
//	end    4    CRC32-C of everything after the magic
const summaryMagic = "OPAQSUM\x01"

// persistChunk is how many elements SaveSummary and LoadSummary encode
// or decode per Write or Read.
const persistChunk = 4096

// ErrSummaryFormat reports a malformed summary stream.
var ErrSummaryFormat = errors.New("core: malformed summary stream")

// SavedSize returns the exact number of bytes SaveSummary writes for s
// with a codec of elemSize-byte elements, so a caller encoding into
// memory can size its buffer once.
func SavedSize[T cmp.Ordered](s *Summary[T], elemSize int) int {
	return len(summaryMagic) + 48 + (2+len(s.samples))*elemSize + 4
}

// SaveSummary writes s to w using codec for element encoding.
func SaveSummary[T cmp.Ordered](w io.Writer, s *Summary[T], codec runio.Codec[T]) error {
	bw := bufio.NewWriter(w)
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	mw := io.MultiWriter(bw, crc)

	if _, err := bw.WriteString(summaryMagic); err != nil {
		return fmt.Errorf("core: save summary: %w", err)
	}
	var hdr [48]byte
	binary.LittleEndian.PutUint16(hdr[0:], codec.Kind())
	binary.LittleEndian.PutUint16(hdr[2:], uint16(codec.Size()))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(s.step))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(s.runs))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(s.n))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(s.leftover))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(len(s.samples)))
	if _, err := mw.Write(hdr[:]); err != nil {
		return fmt.Errorf("core: save summary: %w", err)
	}
	// Elements go out persistChunk at a time: one Write, and one CRC
	// update, per chunk instead of per element.
	chunk := make([]byte, 0, persistChunk*codec.Size())
	writeElems := func(xs []T) error {
		for len(xs) > 0 {
			k := min(len(xs), persistChunk)
			chunk = runio.AppendElems(chunk[:0], codec, xs[:k])
			if _, err := mw.Write(chunk); err != nil {
				return fmt.Errorf("core: save summary: %w", err)
			}
			xs = xs[k:]
		}
		return nil
	}
	if err := writeElems([]T{s.min, s.max}); err != nil {
		return err
	}
	if err := writeElems(s.samples); err != nil {
		return err
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], crc.Sum32())
	if _, err := bw.Write(tail[:]); err != nil {
		return fmt.Errorf("core: save summary: %w", err)
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("core: save summary: %w", err)
	}
	return nil
}

// LoadSummary reads a Summary previously written by SaveSummary and
// re-validates every structural invariant via NewSummary.
func LoadSummary[T cmp.Ordered](r io.Reader, codec runio.Codec[T]) (*Summary[T], error) {
	br := bufio.NewReader(r)
	magic := make([]byte, len(summaryMagic))
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("%w: short magic: %v", ErrSummaryFormat, err)
	}
	if string(magic) != summaryMagic {
		return nil, fmt.Errorf("%w: bad magic", ErrSummaryFormat)
	}
	crc := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	tr := io.TeeReader(br, crc)

	var hdr [48]byte
	if _, err := io.ReadFull(tr, hdr[:]); err != nil {
		return nil, fmt.Errorf("%w: short header: %v", ErrSummaryFormat, err)
	}
	kind := binary.LittleEndian.Uint16(hdr[0:])
	elemSize := binary.LittleEndian.Uint16(hdr[2:])
	if kind != codec.Kind() {
		return nil, fmt.Errorf("%w: stream kind %d, codec kind %d", ErrSummaryFormat, kind, codec.Kind())
	}
	if int(elemSize) != codec.Size() {
		return nil, fmt.Errorf("%w: stream element size %d, codec %d", ErrSummaryFormat, elemSize, codec.Size())
	}
	step := int64(binary.LittleEndian.Uint64(hdr[8:]))
	runs := int64(binary.LittleEndian.Uint64(hdr[16:]))
	n := int64(binary.LittleEndian.Uint64(hdr[24:]))
	leftover := int64(binary.LittleEndian.Uint64(hdr[32:]))
	count := binary.LittleEndian.Uint64(hdr[40:])
	if count > 1<<40 {
		return nil, fmt.Errorf("%w: implausible sample count %d", ErrSummaryFormat, count)
	}
	// Elements arrive persistChunk at a time, and the sample list grows
	// as they actually arrive instead of trusting the header's count up
	// front: a corrupted count (up to the 2⁴⁰ plausibility cap) must fail
	// at EOF with a small allocation, not attempt a terabyte-sized make.
	size := uint64(codec.Size())
	chunk := make([]byte, min(count+2, persistChunk)*size)
	if _, err := io.ReadFull(tr, chunk[:2*size]); err != nil {
		return nil, fmt.Errorf("%w: truncated extrema: %v", ErrSummaryFormat, err)
	}
	minV, maxV := codec.Decode(chunk[:size]), codec.Decode(chunk[size:2*size])
	samples := make([]T, 0, min(count, 1<<16))
	for left := count; left > 0; {
		k := min(left, persistChunk)
		if _, err := io.ReadFull(tr, chunk[:k*size]); err != nil {
			return nil, fmt.Errorf("%w: truncated samples: %v", ErrSummaryFormat, err)
		}
		// The chunk holds whole elements, so decoding cannot fail.
		samples, _ = runio.DecodeFrameElems(codec, chunk[:k*size], samples)
		left -= k
	}
	want := crc.Sum32()
	var tail [4]byte
	if _, err := io.ReadFull(br, tail[:]); err != nil {
		return nil, fmt.Errorf("%w: missing checksum: %v", ErrSummaryFormat, err)
	}
	if got := binary.LittleEndian.Uint32(tail[:]); got != want {
		return nil, fmt.Errorf("%w: checksum mismatch %08x != %08x", ErrSummaryFormat, got, want)
	}
	sum, err := NewSummary(SummaryParts[T]{
		Samples: samples, Step: step, Runs: runs, N: n, Leftover: leftover,
		Min: minV, Max: maxV,
	})
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrSummaryFormat, err)
	}
	return sum, nil
}
