package core

import (
	"bytes"
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"opaq/internal/runio"
)

// replayStream feeds a fresh builder the same batches and seals as ops (a
// nil entry is a seal) without ever asking it for an intermediate
// summary, and returns it with the summaries its seals produced.
func replayStream[T cmp.Ordered](t *testing.T, cfg Config, ops [][]T) (*StreamBuilder[T], []*Summary[T]) {
	t.Helper()
	b, err := NewStreamBuilder[T](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var sealed []*Summary[T]
	for _, op := range ops {
		if op == nil {
			sealed = append(sealed, b.Seal())
			continue
		}
		if err := b.AddBatch(op); err != nil {
			t.Fatal(err)
		}
	}
	return b, sealed
}

// checkStreamInterleaving drives a builder through random AddBatch sizes
// (1 to 3·RunLen) with Summary() and Seal() at random points. Every
// Summary() must equal (per diff) the summary of a twin that got the same
// keys and seals but no intermediate Summary(), every seal must equal the
// twin's, and the seals merged with the final Summary() must equal
// BuildFromSlice over the whole sequence.
func checkStreamInterleaving[T cmp.Ordered](t *testing.T, seed int64, key func(*rand.Rand) T, diff func(got, want *Summary[T]) string) {
	cfg := Config{RunLen: 256, SampleSize: 16}
	rng := rand.New(rand.NewSource(seed))
	b, err := NewStreamBuilder[T](cfg)
	if err != nil {
		t.Fatal(err)
	}
	var ops [][]T
	var all []T
	var sealed []*Summary[T]
	summaries := 0
	for step := 0; step < 150; step++ {
		switch r := rng.Intn(10); {
		case r < 6:
			n := 1 + rng.Intn(3*cfg.RunLen)
			if rng.Intn(2) == 0 {
				n = 1 + rng.Intn(16)
			}
			batch := make([]T, n)
			for i := range batch {
				batch[i] = key(rng)
			}
			if err := b.AddBatch(batch); err != nil {
				t.Fatal(err)
			}
			ops = append(ops, batch)
			all = append(all, batch...)
		case r < 9:
			got, err := b.Summary()
			if err != nil {
				t.Fatal(err)
			}
			twin, _ := replayStream(t, cfg, ops)
			want, err := twin.Summary()
			if err != nil {
				t.Fatal(err)
			}
			if d := diff(got, want); d != "" {
				t.Fatalf("seed %d step %d: Summary() differs from a twin never asked for one: %s", seed, step, d)
			}
			summaries++
		default:
			sealed = append(sealed, b.Seal())
			ops = append(ops, nil)
		}
	}
	if summaries == 0 {
		t.Fatalf("seed %d: schedule cut no summary", seed)
	}
	_, twinSealed := replayStream(t, cfg, ops)
	for i := range sealed {
		if d := diff(sealed[i], twinSealed[i]); d != "" {
			t.Fatalf("seed %d: seal %d differs from the twin's: %s", seed, i, d)
		}
	}
	final, err := b.Summary()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeAll(append(sealed, final))
	if err != nil {
		t.Fatal(err)
	}
	want, err := BuildFromSlice(all, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if d := diff(merged, want); d != "" {
		t.Fatalf("seed %d: seals + final Summary() differ from BuildFromSlice: %s", seed, d)
	}
}

func TestStreamSummaryInterleavingInt64(t *testing.T) {
	diff := func(got, want *Summary[int64]) string {
		var g, w bytes.Buffer
		if err := SaveSummary(&g, got, runio.Int64Codec{}); err != nil {
			return err.Error()
		}
		if err := SaveSummary(&w, want, runio.Int64Codec{}); err != nil {
			return err.Error()
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			return fmt.Sprintf("encoded bytes differ: %+v vs %+v", got.Parts(), want.Parts())
		}
		return ""
	}
	for seed := int64(1); seed <= 8; seed++ {
		checkStreamInterleaving(t, seed, func(rng *rand.Rand) int64 {
			// A narrow key range half the time, so ties are common.
			if rng.Intn(2) == 0 {
				return rng.Int63n(64)
			}
			return rng.Int63()
		}, diff)
	}
}

// Float samples are compared with ==, not by their bits: +0 and −0 are
// equal keys, and either may land at a rank depending on the order the
// run was sampled in.
func TestStreamSummaryInterleavingFloat64(t *testing.T) {
	diff := func(got, want *Summary[float64]) string {
		g, w := got.Parts(), want.Parts()
		if g.Step != w.Step || g.Runs != w.Runs || g.N != w.N || g.Leftover != w.Leftover ||
			g.Min != w.Min || g.Max != w.Max || len(g.Samples) != len(w.Samples) {
			return fmt.Sprintf("counts or extrema differ: %+v vs %+v", g, w)
		}
		for i := range g.Samples {
			if g.Samples[i] != w.Samples[i] {
				return fmt.Sprintf("sample %d: %v vs %v", i, g.Samples[i], w.Samples[i])
			}
		}
		return ""
	}
	negZero := math.Copysign(0, -1)
	for seed := int64(1); seed <= 8; seed++ {
		checkStreamInterleaving(t, seed, func(rng *rand.Rand) float64 {
			switch rng.Intn(4) {
			case 0:
				return negZero
			case 1:
				return 0
			case 2:
				return float64(rng.Intn(8)) - 4
			}
			return rng.NormFloat64()
		}, diff)
	}
}

// BenchmarkStreamSummaryUnderIngest is one stripe of a serving engine
// under mixed load: 1024-key batches into a builder with m=65536,
// s=1024, and one Summary() per k batches, sealed every 8 runs as an
// epoch policy would. ns/op is per batch; the snapshot cut's cost is
// spread over the k batches it follows.
func BenchmarkStreamSummaryUnderIngest(b *testing.B) {
	const batch = 1024
	cfg := Config{RunLen: 65536, SampleSize: 1024}
	rng := rand.New(rand.NewSource(1))
	keys := make([]int64, 1<<20)
	for i := range keys {
		keys[i] = rng.Int63()
	}
	for _, k := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			sb, err := NewStreamBuilder[int64](cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				off := (i * batch) % len(keys)
				if err := sb.AddBatch(keys[off : off+batch]); err != nil {
					b.Fatal(err)
				}
				if (i+1)%k == 0 {
					s, err := sb.Summary()
					if err != nil {
						b.Fatal(err)
					}
					RecycleSummary(s)
				}
				if sb.N() >= 8*int64(cfg.RunLen) {
					sb.Seal()
				}
			}
			b.ReportMetric(float64(b.N)*batch/b.Elapsed().Seconds(), "keys/s")
		})
	}
}
