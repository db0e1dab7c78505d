package selection

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRegularRanks(t *testing.T) {
	ranks, err := RegularRanks(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 3, 5, 7}
	if len(ranks) != len(want) {
		t.Fatalf("RegularRanks(8,4) = %v, want %v", ranks, want)
	}
	for i := range want {
		if ranks[i] != want[i] {
			t.Fatalf("RegularRanks(8,4) = %v, want %v", ranks, want)
		}
	}
}

func TestRegularRanksErrors(t *testing.T) {
	if _, err := RegularRanks(10, 3); err == nil {
		t.Error("RegularRanks(10,3) should fail: 3 does not divide 10")
	}
	if _, err := RegularRanks(0, 1); err == nil {
		t.Error("RegularRanks(0,1) should fail")
	}
	if _, err := RegularRanks(8, 0); err == nil {
		t.Error("RegularRanks(8,0) should fail")
	}
	if _, err := RegularRanks(-8, 2); err == nil {
		t.Error("RegularRanks(-8,2) should fail")
	}
}

func TestRegularRanksFullSample(t *testing.T) {
	// s == m degenerates to every rank.
	ranks, err := RegularRanks(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range ranks {
		if r != i {
			t.Fatalf("RegularRanks(5,5)[%d] = %d, want %d", i, r, i)
		}
	}
}

func TestMultiSelectMatchesSort(t *testing.T) {
	rng := testRNG()
	for trial := 0; trial < 30; trial++ {
		n := 1 + rng.Intn(400)
		xs := make([]int64, n)
		for i := range xs {
			xs[i] = rng.Int63n(64) // duplicates
		}
		want := sortedCopy(xs)
		nRanks := 1 + rng.Intn(10)
		ranks := make([]int, nRanks)
		for i := range ranks {
			ranks[i] = rng.Intn(n)
		}
		got, err := MultiSelect(append([]int64(nil), xs...), ranks)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range ranks {
			if got[i] != want[k] {
				t.Fatalf("trial %d: MultiSelect rank %d = %d, want %d", trial, k, got[i], want[k])
			}
		}
	}
}

func TestMultiSelectUnsortedDuplicateRanks(t *testing.T) {
	xs := []int64{9, 3, 7, 1, 5}
	got, err := MultiSelect(xs, []int{4, 0, 4, 2})
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{9, 1, 9, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("MultiSelect = %v, want %v", got, want)
		}
	}
}

func TestMultiSelectEmptyRanks(t *testing.T) {
	got, err := MultiSelect([]int64{1, 2, 3}, nil)
	if err != nil || got != nil {
		t.Fatalf("MultiSelect(nil ranks) = %v, %v; want nil, nil", got, err)
	}
}

func TestMultiSelectRankOutOfRange(t *testing.T) {
	if _, err := MultiSelect([]int64{1, 2}, []int{0, 5}); !errors.Is(err, ErrRankOutOfRange) {
		t.Fatalf("error = %v, want ErrRankOutOfRange", err)
	}
}

func TestMultiSelectPlacesAllRanksInPlace(t *testing.T) {
	// After MultiSelect, xs[k] must equal sort(xs)[k] for every requested k.
	rng := testRNG()
	xs := make([]int64, 1024)
	for i := range xs {
		xs[i] = rng.Int63n(5000)
	}
	want := sortedCopy(xs)
	ranks := []int{0, 127, 255, 511, 767, 1023}
	if _, err := MultiSelect(xs, ranks); err != nil {
		t.Fatal(err)
	}
	for _, k := range ranks {
		if xs[k] != want[k] {
			t.Fatalf("xs[%d] = %d after MultiSelect, want %d", k, xs[k], want[k])
		}
	}
}

func TestRegularSample(t *testing.T) {
	// Run of 16 values 16..1; regular sample with s=4 must be the elements
	// of ranks 3,7,11,15 = 4,8,12,16.
	run := make([]int64, 16)
	for i := range run {
		run[i] = int64(16 - i)
	}
	got, err := RegularSample(run, 4)
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{4, 8, 12, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("RegularSample = %v, want %v", got, want)
		}
	}
}

func TestRegularSampleSorted(t *testing.T) {
	// Output of RegularSample must always be ascending.
	rng := testRNG()
	run := make([]int64, 4096)
	for i := range run {
		run[i] = rng.Int63n(100)
	}
	got, err := RegularSample(run, 64)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(got); i++ {
		if got[i] < got[i-1] {
			t.Fatalf("sample not sorted at %d: %d < %d", i, got[i], got[i-1])
		}
	}
}

func TestRegularSampleIndivisible(t *testing.T) {
	if _, err := RegularSample([]int64{1, 2, 3}, 2); err == nil {
		t.Error("RegularSample with s∤m should fail")
	}
}

// Property (paper, Appendix A, Result 1): the i-th regular sample point of a
// run has at least i*m/s elements of the run ≤ it, and exactly i*m/s when
// keys are distinct.
func TestQuickRegularSampleSubRunProperty(t *testing.T) {
	rng := testRNG()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := 1 << (1 + r.Intn(4)) // 2..16
		m := s * (1 + r.Intn(20)) // multiple of s
		run := make([]int64, m)
		for i := range run {
			run[i] = r.Int63n(int64(m))
		}
		orig := append([]int64(nil), run...)
		sample, err := RegularSample(run, s)
		if err != nil {
			return false
		}
		for i := 1; i <= s; i++ {
			le := 0
			for _, x := range orig {
				if x <= sample[i-1] {
					le++
				}
			}
			if le < i*m/s {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}

// Property: MultiSelect preserves the multiset.
func TestQuickMultiSelectPermutation(t *testing.T) {
	rng := testRNG()
	f := func(raw []int64, picks []uint16) bool {
		if len(raw) == 0 || len(picks) == 0 {
			return true
		}
		ranks := make([]int, len(picks))
		for i, p := range picks {
			ranks[i] = int(p) % len(raw)
		}
		cp := append([]int64(nil), raw...)
		if _, err := MultiSelect(cp, ranks); err != nil {
			return false
		}
		a, b := sortedCopy(cp), sortedCopy(raw)
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rng}); err != nil {
		t.Fatal(err)
	}
}
