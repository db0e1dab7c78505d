package core

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"opaq/internal/datagen"
	"opaq/internal/runio"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(3, 1<<40), 25_000)
	s, err := BuildFromSlice(xs, Config{RunLen: 2500, SampleSize: 250})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSummary[int64](&buf, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != s.N() || got.Runs() != s.Runs() || got.Step() != s.Step() ||
		got.Min() != s.Min() || got.Max() != s.Max() || got.SampleCount() != s.SampleCount() {
		t.Fatalf("metadata mismatch: %+v vs %+v", got.Parts(), s.Parts())
	}
	for _, phi := range []float64{0.1, 0.5, 0.9, 1.0} {
		a, _ := s.Bounds(phi)
		b, _ := got.Bounds(phi)
		if a.Lower != b.Lower || a.Upper != b.Upper {
			t.Errorf("phi=%g: bounds changed across save/load", phi)
		}
	}
}

// plainCodec hides Int64Codec's BulkCodec methods, forcing persistence
// down the per-element encode and decode path.
type plainCodec struct{ runio.Codec[int64] }

// Save and load move elements in chunks: a summary spanning several
// chunks must serialize to the same bytes, and load back to the same
// parts, whether or not the codec has bulk methods.
func TestSaveLoadChunksAndPlainCodec(t *testing.T) {
	xs := datagen.Generate(datagen.NewUniform(5, 1<<40), 2*persistChunk*8+8*3+5)
	s, err := BuildFromSlice(xs, Config{RunLen: 64, SampleSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	if s.SampleCount() <= 2*persistChunk {
		t.Fatalf("setup: %d samples do not span three chunks", s.SampleCount())
	}
	var bulk, plain bytes.Buffer
	if err := SaveSummary(&bulk, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if err := SaveSummary(&plain, s, plainCodec{runio.Int64Codec{}}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(bulk.Bytes(), plain.Bytes()) {
		t.Fatal("per-element and bulk encodings differ")
	}
	if got, want := SavedSize(s, 8), bulk.Len(); got != want {
		t.Fatalf("SavedSize = %d, SaveSummary wrote %d bytes", got, want)
	}
	for name, codec := range map[string]runio.Codec[int64]{"bulk": runio.Int64Codec{}, "plain": plainCodec{runio.Int64Codec{}}} {
		got, err := LoadSummary(bytes.NewReader(bulk.Bytes()), codec)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got.Parts(), s.Parts()) {
			t.Errorf("%s: loaded summary differs from the saved one", name)
		}
	}
}

func TestSaveLoadEmptySummary(t *testing.T) {
	s, err := BuildFromSlice[int64](nil, Config{RunLen: 8, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if got, want := SavedSize(s, 8), buf.Len(); got != want {
		t.Fatalf("SavedSize = %d, SaveSummary wrote %d bytes", got, want)
	}
	got, err := LoadSummary[int64](&buf, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	if got.N() != 0 {
		t.Fatalf("N = %d", got.N())
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	_, err := LoadSummary[int64](bytes.NewReader([]byte("not a summary at all")), runio.Int64Codec{})
	if !errors.Is(err, ErrSummaryFormat) {
		t.Fatalf("error = %v, want ErrSummaryFormat", err)
	}
}

func TestLoadRejectsWrongCodec(t *testing.T) {
	s, err := BuildFromSlice([]int64{1, 2, 3, 4}, Config{RunLen: 4, SampleSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSummary[float64](&buf, runio.Float64Codec{}); !errors.Is(err, ErrSummaryFormat) {
		t.Fatalf("error = %v, want ErrSummaryFormat", err)
	}
}

func TestLoadDetectsCorruption(t *testing.T) {
	s, err := BuildFromSlice(datagen.Generate(datagen.NewUniform(1, 1000), 1000),
		Config{RunLen: 100, SampleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Flip a byte in the middle of the sample payload.
	raw[len(raw)/2] ^= 0xFF
	if _, err := LoadSummary[int64](bytes.NewReader(raw), runio.Int64Codec{}); !errors.Is(err, ErrSummaryFormat) {
		t.Fatalf("error = %v, want ErrSummaryFormat (corruption)", err)
	}
}

func TestLoadDetectsTruncation(t *testing.T) {
	s, err := BuildFromSlice(datagen.Generate(datagen.NewUniform(1, 1000), 1000),
		Config{RunLen: 100, SampleSize: 10})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()[:buf.Len()-10]
	if _, err := LoadSummary[int64](bytes.NewReader(raw), runio.Int64Codec{}); !errors.Is(err, ErrSummaryFormat) {
		t.Fatalf("error = %v, want ErrSummaryFormat (truncation)", err)
	}
}

func TestSaveLoadThenMergeContinuesIncremental(t *testing.T) {
	// The paper's checkpointing scenario: save after day 1, load, ingest
	// day 2, merge — identical to having never stopped.
	cfg := Config{RunLen: 1000, SampleSize: 100}
	day1 := datagen.Generate(datagen.NewUniform(5, 1<<30), 10_000)
	day2 := datagen.Generate(datagen.NewUniform(6, 1<<30), 10_000)

	s1, err := BuildFromSlice(day1, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveSummary(&buf, s1, runio.Int64Codec{}); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadSummary[int64](&buf, runio.Int64Codec{})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := BuildFromSlice(day2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	viaCheckpoint, err := Merge(restored, s2)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := Merge(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, phi := range []float64{0.25, 0.5, 0.75} {
		a, _ := viaCheckpoint.Bounds(phi)
		b, _ := direct.Bounds(phi)
		if a.Lower != b.Lower || a.Upper != b.Upper {
			t.Errorf("phi=%g: checkpointed path diverges from direct path", phi)
		}
	}
}
