package selection

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFloydRivestSmall(t *testing.T) {
	xs := []int64{5, 1, 4, 2, 3}
	for k := 0; k < 5; k++ {
		cp := append([]int64(nil), xs...)
		got, err := Select(cp, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != int64(k+1) {
			t.Errorf("k=%d: got %d, want %d", k, got, k+1)
		}
	}
}

func TestFloydRivestLarge(t *testing.T) {
	rng := testRNG()
	n := 100_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = rng.Int63n(1 << 40)
	}
	want := sortedCopy(xs)
	for _, k := range []int{0, 1, n / 4, n / 2, 3 * n / 4, n - 2, n - 1} {
		cp := append([]int64(nil), xs...)
		got, err := Select(cp, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[k] {
			t.Errorf("k=%d: got %d, want %d", k, got, want[k])
		}
	}
}

func TestFloydRivestDuplicateHeavy(t *testing.T) {
	rng := testRNG()
	n := 50_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(rng.Intn(3)) // retry-fallback path
	}
	want := sortedCopy(xs)
	for _, k := range []int{0, n / 2, n - 1} {
		cp := append([]int64(nil), xs...)
		got, err := Select(cp, k)
		if err != nil {
			t.Fatal(err)
		}
		if got != want[k] {
			t.Errorf("k=%d: got %d, want %d", k, got, want[k])
		}
	}
}

func TestFloydRivestSortedInput(t *testing.T) {
	n := 20_000
	xs := make([]int64, n)
	for i := range xs {
		xs[i] = int64(i)
	}
	got, err := Select(xs, n/3)
	if err != nil || got != int64(n/3) {
		t.Fatalf("got %d, %v; want %d", got, err, n/3)
	}
}

func TestFloydRivestOutOfRange(t *testing.T) {
	if _, err := Select([]int64{1}, 1); err == nil {
		t.Fatal("k out of range should fail")
	}
}

func TestQuickFloydRivestEqualsSort(t *testing.T) {
	f := func(raw []int64, kRaw uint16) bool {
		if len(raw) == 0 {
			return true
		}
		k := int(kRaw) % len(raw)
		want := sortedCopy(raw)[k]
		got, err := Select(append([]int64(nil), raw...), k)
		return err == nil && got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(77))}); err != nil {
		t.Fatal(err)
	}
}
