package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different seeds produced %d identical draws out of 100", same)
	}
}

func TestDeriveStable(t *testing.T) {
	a := New(7).Derive("panel")
	b := New(7).Derive("panel")
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("derived streams with same label diverged at %d", i)
		}
	}
}

func TestDeriveIndependentLabels(t *testing.T) {
	a := New(7).Derive("panel")
	b := New(7).Derive("delivery")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("different labels produced %d identical draws", same)
	}
}

func TestDeriveDoesNotAdvanceParent(t *testing.T) {
	a := New(9)
	b := New(9)
	_ = a.Derive("x")
	for i := 0; i < 10; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("Derive advanced the parent stream")
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(3)
	for i := 0; i < 100000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean = %v, want ~0.5", mean)
	}
}

func TestIntnBounds(t *testing.T) {
	r := New(11)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 1000; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

// TestIntnSequencePinned pins Intn's output stream: every seeded table,
// figure and bootstrap CI in the repository consumes it, so a change to the
// bounded-generation arithmetic must not move a single draw. Each row is one
// fresh generator drawing three rounds over the n list, which spans the
// trivial bound, small bounds, the paper's panel size, a bound past 32 bits
// and the largest int (where Lemire's rejection threshold is non-zero).
func TestIntnSequencePinned(t *testing.T) {
	ns := []int{1, 2, 3, 2390, 1<<40 + 7, math.MaxInt64}
	for _, tc := range []struct {
		seed uint64
		want []int
	}{
		{0, []int{0, 1, 0, 995, 805938481700, 9221051770647995748, 0, 1, 2, 2196, 125671391141, 620104743558096346, 0, 1, 1, 708, 774535562298, 1740324278856418119}},
		{1, []int{0, 1, 1, 935, 766555775647, 1324218308982920080, 0, 0, 2, 1318, 1025374243806, 8828779273611113554, 0, 1, 1, 2128, 88462246178, 4531995491836664855}},
		{42, []int{0, 0, 2, 2210, 1090499936233, 7099593415032875291, 0, 1, 2, 1394, 750364865552, 2681029139591840946, 0, 0, 2, 2097, 678136487646, 7852687488934748777}},
	} {
		r := New(tc.seed)
		for i, want := range tc.want {
			n := ns[i%len(ns)]
			if got := r.Intn(n); got != want {
				t.Fatalf("seed %d draw %d: Intn(%d) = %d, want %d", tc.seed, i, n, got, want)
			}
		}
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(13)
	const n, draws = 10, 100000
	counts := make([]int, n)
	for i := 0; i < draws; i++ {
		counts[r.Intn(n)]++
	}
	want := float64(draws) / n
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Fatalf("bucket %d count %d deviates from %v", i, c, want)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(17)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Errorf("normal mean = %v, want ~0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Errorf("normal variance = %v, want ~1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(19)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("negative exponential variate %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean = %v, want ~1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(23)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) has length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) not a permutation: %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestBoolEdges(t *testing.T) {
	r := New(29)
	for i := 0; i < 100; i++ {
		if r.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !r.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(31)
	const n = 100000
	hits := 0
	for i := 0; i < n; i++ {
		if r.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / n
	if math.Abs(got-0.3) > 0.01 {
		t.Fatalf("Bool(0.3) frequency = %v", got)
	}
}

// Property: Intn stays in range for arbitrary seeds and bounds.
func TestQuickIntnInRange(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		bound := int(n%1000) + 1
		r := New(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(bound)
			if v < 0 || v >= bound {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Derive is a pure function of (state, label).
func TestQuickDeriveStable(t *testing.T) {
	f := func(seed uint64, label string) bool {
		a := New(seed).Derive(label)
		b := New(seed).Derive(label)
		for i := 0; i < 10; i++ {
			if a.Uint64() != b.Uint64() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink = r.Uint64()
	}
	_ = sink
}

func BenchmarkFloat64(b *testing.B) {
	r := New(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = r.Float64()
	}
	_ = sink
}

func BenchmarkIntn(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink = r.Intn(1000)
	}
	_ = sink
}
