package stats

import (
	"math"
	"sort"
	"testing"

	"nanotarget/internal/rng"
)

// expandCounting materializes the multiset a counting column describes —
// the oracle every test here sorts and quantiles the naive way.
func expandCounting(vals []float64, keys []int32, counts []int32) []float64 {
	var out []float64
	for i, k := range keys {
		for c := int32(0); c < counts[k]; c++ {
			out = append(out, vals[i])
		}
	}
	return out
}

func TestCountingQuantileMatchesSortedExpansion(t *testing.T) {
	r := rng.New(77)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(40)
		vals := make([]float64, n)
		keys := make([]int32, n)
		counts := make([]int32, n)
		for i := range vals {
			vals[i] = math.Floor(r.Float64()*1000) / 8 // ties likely
			keys[i] = int32(i)
			counts[i] = int32(r.Intn(4)) // zeros likely
		}
		sort.Float64s(vals)
		total := CountingTotal(keys, counts)
		qs := []float64{0, 0.25, 0.5, 0.75, 0.9, 0.95, 1}
		qs = append(qs, r.Float64())
		for _, q := range qs {
			got := CountingQuantileSorted(vals, keys, counts, total, q)
			exp := expandCounting(vals, keys, counts)
			if len(exp) == 0 {
				if !math.IsNaN(got) {
					t.Fatalf("trial %d q=%v: empty expansion, got %v, want NaN", trial, q, got)
				}
				continue
			}
			sort.Float64s(exp)
			want := QuantileSorted(exp, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d q=%v: counting %v != sorted expansion %v", trial, q, got, want)
			}
		}
	}
}

// TestCountingQuantileZeroRuns targets the walk's stop-and-step logic: runs
// of zero-count positions at both ends of the column and on both sides of
// the positions holding ranks lo and hi, which the hot loop must fall
// through and the step to the other order statistic must skip. Keys are a
// shuffled permutation so counts are gathered the way the estimator's
// row-indexed columns gather them.
func TestCountingQuantileZeroRuns(t *testing.T) {
	r := rng.New(91)
	for trial := 0; trial < 400; trial++ {
		filled := make([]int32, 1+r.Intn(12)) // the non-empty positions
		total := 0
		for i := range filled {
			filled[i] = 1 + int32(r.Intn(3))
			total += int(filled[i])
		}
		// rankPos is the non-empty position holding 0-based rank k.
		rankPos := func(k int) int {
			cum := 0
			for i, c := range filled {
				cum += int(c)
				if cum > k {
					return i
				}
			}
			return len(filled) - 1
		}
		for _, q := range []float64{0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 1, r.Float64()} {
			lo := int(math.Floor(q * float64(total-1)))
			pLo, pHi := rankPos(lo), rankPos(lo+1)
			var counts []int32
			for i := 0; i <= len(filled); i++ {
				if i == 0 || i == len(filled) || i == pLo || i == pLo+1 || i == pHi || i == pHi+1 {
					for z := 1 + r.Intn(3); z > 0; z-- {
						counts = append(counts, 0)
					}
				}
				if i < len(filled) {
					counts = append(counts, filled[i])
				}
			}
			vals := make([]float64, len(counts))
			v := 0.0
			for i := range vals {
				v += float64(r.Intn(2)) // ties likely
				vals[i] = v
			}
			perm := r.Perm(len(counts))
			keys := make([]int32, len(counts))
			byKey := make([]int32, len(counts))
			for i, k := range perm {
				keys[i] = int32(k)
				byKey[k] = counts[i]
			}
			got := CountingQuantileSorted(vals, keys, byKey, total, q)
			exp := expandCounting(vals, keys, byKey)
			sort.Float64s(exp)
			want := QuantileSorted(exp, q)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d q=%v counts=%v: counting %v != sorted expansion %v", trial, q, counts, got, want)
			}
		}
	}
}

func TestCountingQuantileEdgeCases(t *testing.T) {
	vals := []float64{1, 2, 3}
	keys := []int32{0, 1, 2}

	// All mass on one value: every quantile is that value.
	counts := []int32{0, 5, 0}
	for _, q := range []float64{0, 0.5, 1} {
		if got := CountingQuantileSorted(vals, keys, counts, 5, q); got != 2 {
			t.Fatalf("q=%v: got %v, want 2", q, got)
		}
	}

	// Single-element expansion hits the total==1 fast path.
	counts = []int32{0, 0, 1}
	if got := CountingQuantileSorted(vals, keys, counts, 1, 0.5); got != 3 {
		t.Fatalf("singleton: got %v, want 3", got)
	}

	// q=1 returns the largest present value even when later keys are empty.
	counts = []int32{2, 3, 0}
	if got := CountingQuantileSorted(vals, keys, counts, 5, 1); got != 2 {
		t.Fatalf("q=1: got %v, want 2", got)
	}

	// Empty expansion is NaN, mirroring the estimator's missing-column case.
	counts = []int32{0, 0, 0}
	if got := CountingQuantileSorted(vals, keys, counts, 0, 0.5); !math.IsNaN(got) {
		t.Fatalf("empty: got %v, want NaN", got)
	}

	if CountingTotal(keys, []int32{1, 2, 3}) != 6 {
		t.Fatal("CountingTotal wrong")
	}
}

func TestCountingQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("q=1.5 did not panic (QuantileSorted contract)")
		}
	}()
	CountingQuantileSorted([]float64{1}, []int32{0}, []int32{1}, 1, 1.5)
}

func TestCountsPoolReuse(t *testing.T) {
	var p CountsPool
	b := p.Borrow(8)
	if len(*b) != 8 {
		t.Fatalf("len %d", len(*b))
	}
	for i := range *b {
		(*b)[i] = int32(i + 1)
	}
	p.Release(b)
	b2 := p.Borrow(4)
	for i, v := range *b2 {
		if v != 0 {
			t.Fatalf("recycled vector not zeroed at %d: %d", i, v)
		}
	}
	p.Release(b2)
	// Growth beyond the recycled capacity must also hand back zeroed memory.
	b3 := p.Borrow(64)
	if len(*b3) != 64 {
		t.Fatalf("len %d", len(*b3))
	}
	for i, v := range *b3 {
		if v != 0 {
			t.Fatalf("grown vector not zeroed at %d: %d", i, v)
		}
	}
}
