package core

import (
	"math"
	"testing"

	"nanotarget/internal/rng"
)

// FuzzColumnarVAS is the differential fuzz target for the columnar
// bootstrap kernel (one of the CI fuzz-smoke targets): random sample
// tables — arbitrary values, arbitrary NaN hole patterns, prefix-shaped and
// not — and random resample multiplicities, fed to both the
// counting-quantile kernel and the naive gather-copy-sort oracle, asserting
// bit equality of every VAS entry, and that the lazy resample fit
// (fitResample) agrees with FitVAS on the naive vector: the same N_P bits,
// and an error from both or from neither. The generator derives everything from
// the fuzzed seeds so the corpus stays byte-small while covering the input
// space.
func FuzzColumnarVAS(f *testing.F) {
	f.Add(uint64(1), uint64(2), uint8(10), uint8(5), uint16(900))
	f.Add(uint64(42), uint64(0), uint8(1), uint8(1), uint16(0))
	f.Add(uint64(7), uint64(9), uint8(60), uint8(25), uint16(65535))
	f.Fuzz(func(t *testing.T, tableSeed, idxSeed uint64, usersRaw, maxNRaw uint8, qRaw uint16) {
		users := 1 + int(usersRaw)%64
		maxN := 1 + int(maxNRaw)%25
		q := float64(qRaw) / 65535
		r := rng.New(tableSeed)
		s := &Samples{
			AS:         make([][]float64, users),
			MaxN:       maxN,
			FloorValue: 20,
			Strategy:   "fuzz",
		}
		for u := range s.AS {
			// Rows may be shorter or longer than MaxN; cells may be NaN
			// anywhere (interior holes defeat the prefix-shaped fast path).
			rowLen := r.Intn(maxN + 3)
			row := make([]float64, rowLen)
			for n := range row {
				switch r.Intn(4) {
				case 0:
					row[n] = math.NaN()
				case 1:
					row[n] = float64(r.Intn(5)) // heavy ties
				default:
					row[n] = math.Floor(r.Float64()*1e9) / 16
				}
			}
			s.AS[u] = row
		}
		ri := rng.New(idxSeed)
		idx := make([]int, users)
		for i := range idx {
			idx[i] = ri.Intn(users)
		}

		naive := s.vasIdx(q, idx)
		sc := s.borrowResample()
		kernel := s.vasResample(q, idx, sc)
		defer s.releaseResample(sc)
		if len(naive) != len(kernel) {
			t.Fatalf("length mismatch: naive %d, kernel %d", len(naive), len(kernel))
		}
		for n := range naive {
			a, b := naive[n], kernel[n]
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("q=%v n=%d: naive sort path %v (bits %x) != counting kernel %v (bits %x)",
					q, n+1, a, math.Float64bits(a), b, math.Float64bits(b))
			}
		}

		lazy, lazyErr := s.fitResample(q, idx, sc)
		full, fullErr := FitVAS(naive, s.FloorValue)
		if (lazyErr == nil) != (fullErr == nil) {
			t.Fatalf("q=%v: lazy fit error %v, full-vector fit error %v", q, lazyErr, fullErr)
		}
		if lazyErr == nil && math.Float64bits(lazy.NP) != math.Float64bits(full.NP) {
			t.Fatalf("q=%v: lazy fit N_P %v (bits %x) != full-vector fit N_P %v (bits %x)",
				q, lazy.NP, math.Float64bits(lazy.NP), full.NP, math.Float64bits(full.NP))
		}

		// The full-panel fast path must agree with the naive scan too.
		fullNaive := s.vasIdx(q, nil)
		fullKernel := s.VAS(q)
		for n := range fullNaive {
			a, b := fullNaive[n], fullKernel[n]
			if math.IsNaN(a) && math.IsNaN(b) {
				continue
			}
			if math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("full VAS q=%v n=%d: naive %v != kernel %v", q, n+1, a, b)
			}
		}
	})
}
