package core

import (
	"math"
	"testing"

	"nanotarget/internal/rng"
)

// syntheticSamples builds a Samples table with controllable NaN structure:
// prefix-shaped rows (the real collection shape) when ragged is false, and
// arbitrary interior NaN holes when ragged is true — the shape the kernel's
// per-column total fallback must handle.
func syntheticSamples(t testing.TB, users, maxN int, seed uint64, ragged bool) *Samples {
	t.Helper()
	r := rng.New(seed)
	s := &Samples{
		AS:         make([][]float64, users),
		MaxN:       maxN,
		FloorValue: 20,
		Strategy:   "synthetic",
	}
	for u := range s.AS {
		row := make([]float64, maxN)
		depth := 1 + r.Intn(maxN)
		for n := range row {
			switch {
			case n < depth:
				row[n] = 20 + math.Floor(r.Float64()*1e6)/4
			case ragged && r.Float64() < 0.3:
				row[n] = 20 + math.Floor(r.Float64()*1e6)/4 // interior hole breaker
			default:
				row[n] = math.NaN()
			}
		}
		s.AS[u] = row
	}
	return s
}

func resampleIdx(r *rng.Rand, users int) []int {
	idx := make([]int, users)
	for i := range idx {
		idx[i] = r.Intn(users)
	}
	return idx
}

// TestColumnarResampleMatchesNaive is the in-package differential gate: for
// prefix-shaped and ragged NaN patterns, the kernel's counting-quantile
// resample must be byte-identical to the naive gather-copy-sort path for
// every column and a spread of quantiles.
func TestColumnarResampleMatchesNaive(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		for seed := uint64(0); seed < 5; seed++ {
			s := syntheticSamples(t, 60, 25, 100+seed, ragged)
			r := rng.New(seed)
			for trial := 0; trial < 20; trial++ {
				idx := resampleIdx(r, s.NumUsers())
				for _, q := range []float64{0, 0.1, 0.5, 0.9, 0.95, 1} {
					naive := s.vasIdx(q, idx)
					sc := s.borrowResample()
					kernel := s.vasResample(q, idx, sc)
					for n := range naive {
						if !bitsEqual(naive[n], kernel[n]) {
							t.Fatalf("ragged=%v seed=%d trial=%d q=%v n=%d: naive %v != kernel %v",
								ragged, seed, trial, q, n+1, naive[n], kernel[n])
						}
					}
					s.releaseResample(sc)
				}
			}
			// Full-panel VAS must agree too.
			for _, q := range []float64{0.25, 0.5, 0.9} {
				naive := s.vasIdx(q, nil)
				kernel := s.VAS(q)
				for n := range naive {
					if !bitsEqual(naive[n], kernel[n]) {
						t.Fatalf("ragged=%v seed=%d VAS q=%v n=%d: naive %v != kernel %v",
							ragged, seed, q, n+1, naive[n], kernel[n])
					}
				}
			}
		}
	}
}

// TestResamplePermutationMetamorphic: a bootstrap resample is a MULTISET —
// permuting its index order must leave the kernel's VAS vector (and the
// naive path's) byte-identical.
func TestResamplePermutationMetamorphic(t *testing.T) {
	s := syntheticSamples(t, 80, 25, 7, false)
	r := rng.New(8)
	idx := resampleIdx(r, s.NumUsers())
	perm := append([]int{}, idx...)
	for trial := 0; trial < 10; trial++ {
		r.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		for _, q := range []float64{0.5, 0.9} {
			sc := s.borrowResample()
			base := append([]float64{}, s.vasResample(q, idx, sc)...)
			shuffled := s.vasResample(q, perm, sc)
			for n := range base {
				if !bitsEqual(base[n], shuffled[n]) {
					t.Fatalf("trial %d q=%v n=%d: resample order changed the kernel VAS: %v != %v",
						trial, q, n+1, base[n], shuffled[n])
				}
			}
			s.releaseResample(sc)
			naive := s.vasIdx(q, perm)
			for n := range base {
				if !bitsEqual(base[n], naive[n]) {
					t.Fatalf("trial %d q=%v n=%d: permuted naive diverged from kernel: %v != %v",
						trial, q, n+1, naive[n], base[n])
				}
			}
		}
	}
}

// TestFitResamplePoisonedTail proves the lazy resample fit never reads a
// column past the censor point. Every row is above the floor before column
// censorAt and at or below it there, so the point fit and every resample
// censor at that column; the poisoned copy then holds −1 — which the fit
// rejects as a non-positive audience size if it reads it — in every cell
// after it. fitResample on the poisoned table must succeed and match the
// clean table's full-vector fit bit for bit. A second pass then breaks the
// poisoned table's column index past the censor point (an out-of-range row
// in every position, so walking such a column panics): fitResample must
// still succeed, because it never computes those columns at all.
func TestFitResamplePoisonedTail(t *testing.T) {
	const users, maxN, censorAt = 120, 25, 6
	r := rng.New(21)
	clean := &Samples{AS: make([][]float64, users), MaxN: maxN, FloorValue: 20, Strategy: "clean"}
	poisoned := &Samples{AS: make([][]float64, users), MaxN: maxN, FloorValue: 20, Strategy: "poisoned"}
	for u := range clean.AS {
		row := make([]float64, maxN)
		depth := censorAt + 1 + r.Intn(maxN-censorAt)
		for n := range row {
			switch {
			case n < censorAt:
				row[n] = 21 + math.Floor(1e6*math.Pow(0.3, float64(n))*(0.5+r.Float64()))
			case n == censorAt:
				row[n] = 1 + math.Floor(r.Float64()*20)
			case n < depth:
				row[n] = 1 + math.Floor(r.Float64()*1e6)
			default:
				row[n] = math.NaN()
			}
		}
		clean.AS[u] = row
		bad := append([]float64{}, row...)
		for n := censorAt + 1; n < maxN; n++ {
			bad[n] = -1
		}
		poisoned.AS[u] = bad
	}
	check := func(pass string, poisonVisible bool) {
		t.Helper()
		for _, q := range []float64{0.5, 0.9} {
			point, err := FitVAS(clean.VAS(q), clean.FloorValue)
			if err != nil || point.PointsUsed != censorAt+1 {
				t.Fatalf("q=%v: point fit %+v, %v; want %d points", q, point, err, censorAt+1)
			}
			ri := rng.New(22)
			for trial := 0; trial < 50; trial++ {
				idx := resampleIdx(ri, users)
				want, err := FitVAS(clean.vasIdx(q, idx), clean.FloorValue)
				if err != nil {
					t.Fatalf("q=%v trial %d: clean fit: %v", q, trial, err)
				}
				sc := poisoned.borrowResample()
				if poisonVisible {
					if v := poisoned.vasResample(q, idx, sc)[censorAt+1]; v != -1 {
						t.Fatalf("q=%v trial %d: poisoned column reads %v, want -1", q, trial, v)
					}
				}
				got, err := poisoned.fitResample(q, idx, sc)
				poisoned.releaseResample(sc)
				if err != nil {
					t.Fatalf("%s q=%v trial %d: lazy fit read past the censor point: %v", pass, q, trial, err)
				}
				if !bitsEqual(got.NP, want.NP) || !bitsEqual(got.A, want.A) || !bitsEqual(got.B, want.B) ||
					!bitsEqual(got.R2, want.R2) || got.PointsUsed != want.PointsUsed {
					t.Fatalf("%s q=%v trial %d: poisoned lazy fit %+v != clean fit %+v", pass, q, trial, got, want)
				}
			}
		}
	}
	check("poisoned cells", true)
	cols := poisoned.columns()
	for n := censorAt + 1; n < maxN; n++ {
		for i := range cols.users[n] {
			cols.users[n][i] = -1
		}
	}
	check("broken index", false)
}

// TestEstimateNPMatchesNaive compares EstimateNP on one collected table
// with the naiveEstimateNP oracle: point estimate, CI bounds and R² must not
// move by a bit, at workers 1 and 4.
func TestEstimateNPMatchesNaive(t *testing.T) {
	users := panelUsers(40, 30)
	src := powerLawSource(1.7, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(11)})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 4} {
		cfg := func() EstimateConfig {
			return EstimateConfig{BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(12), Parallelism: workers}
		}
		ek, err := EstimateNP(s, 0.9, cfg())
		if err != nil {
			t.Fatal(err)
		}
		en, err := naiveEstimateNP(s, 0.9, cfg())
		if err != nil {
			t.Fatal(err)
		}
		if !bitsEqual(ek.NP, en.NP) || !bitsEqual(ek.CI.Lo, en.CI.Lo) ||
			!bitsEqual(ek.CI.Hi, en.CI.Hi) || !bitsEqual(ek.R2, en.R2) {
			t.Fatalf("workers=%d: kernel %+v != naive %+v", workers, ek, en)
		}
	}
}

// TestSampleCountAtMatchesScan: the column-index-derived counts must equal
// the naive O(U) rescan for every N, in and out of range, on both NaN
// shapes.
func TestSampleCountAtMatchesScan(t *testing.T) {
	for _, ragged := range []bool{false, true} {
		s := syntheticSamples(t, 70, 25, 3, ragged)
		for n := -1; n <= s.MaxN+2; n++ {
			if got, want := s.SampleCountAt(n), s.sampleCountScan(n); got != want {
				t.Fatalf("ragged=%v SampleCountAt(%d) = %d, naive scan says %d", ragged, n, got, want)
			}
		}
	}
}

// TestWarmResampleZeroAllocs gates the kernel's steady state at 0 allocs per
// resample iteration, mirroring the audience engine's
// TestWarmEngineHitZeroAllocs: pooled counting scratch, the immutable
// presorted index, pooled fit buffers, and the lazy column accessor the
// censored fit pulls through — fitResample, the function EstimateNP runs.
func TestWarmResampleZeroAllocs(t *testing.T) {
	if coreRaceEnabled {
		t.Skip("race instrumentation allocates; the 0 allocs/op gate runs in the non-race CI lane (coverage job) and locally")
	}
	s := syntheticSamples(t, 200, 25, 5, false)
	idx := resampleIdx(rng.New(6), s.NumUsers())
	iteration := func() {
		sc := s.borrowResample()
		fit, err := s.fitResample(0.9, idx, sc)
		s.releaseResample(sc)
		if err != nil || fit.NP <= 0 {
			t.Fatalf("degenerate warm iteration: %+v %v", fit, err)
		}
	}
	iteration() // warm: build the index, populate the pools
	if avg := testing.AllocsPerRun(200, iteration); avg != 0 {
		t.Errorf("warm resample iteration: %v allocs/op, want 0", avg)
	}
}

func bitsEqual(a, b float64) bool {
	if math.IsNaN(a) && math.IsNaN(b) {
		return true
	}
	return math.Float64bits(a) == math.Float64bits(b)
}

// BenchmarkBootstrapResample measures ONE bootstrap resample iteration —
// the §4.2 inner loop EstimateNP repeats 10,000 times — under the columnar
// kernel (fitResample, exactly what EstimateNP runs) versus the naive
// gather-copy-sort path. Run with -benchmem: the
// kernel's steady state is 0 allocs/op (also gated by
// TestWarmResampleZeroAllocs), the naive path allocates per column.
func BenchmarkBootstrapResample(b *testing.B) {
	users := panelUsers(2390, 30) // the paper's panel size
	src := powerLawSource(1.7, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	idx := resampleIdx(rng.New(2), s.NumUsers())
	b.Run("kernel", func(b *testing.B) {
		sc := s.borrowResample()
		s.vasResample(0.9, idx, sc) // build the index outside the timer
		s.releaseResample(sc)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sc := s.borrowResample()
			if _, err := s.fitResample(0.9, idx, sc); err != nil {
				b.Fatal(err)
			}
			s.releaseResample(sc)
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FitVAS(s.vasIdx(0.9, idx), s.FloorValue); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkColumnIndexBuild measures the one-time presort the kernel pays
// per Samples (amortized over every subsequent resample).
func BenchmarkColumnIndexBuild(b *testing.B) {
	users := panelUsers(2390, 30)
	src := powerLawSource(1.7, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = buildColumns(s.AS, s.MaxN)
	}
}
