package core

import (
	"errors"
	"fmt"
	"math"

	"nanotarget/internal/stats"
)

// The naive estimator: the gather-copy-sort path the columnar kernel
// (columns.go) replaced, kept only as the differential oracle every kernel
// gate compares against. It lives in a _test.go file so that nothing but
// tests and benchmarks can reach it.

// vasIdx computes VAS over a subset of user rows (nil = all rows); idx may
// contain repeats (bootstrap resamples). This is the naive
// gather-copy-sort path the columnar kernel (columns.go) replaces; it is
// kept as the differential oracle the kernel is fuzzed against.
func (s *Samples) vasIdx(q float64, idx []int) []float64 {
	out := make([]float64, s.MaxN)
	col := make([]float64, 0, len(s.AS))
	for n := 0; n < s.MaxN; n++ {
		col = col[:0]
		if idx == nil {
			for _, row := range s.AS {
				if n < len(row) && !math.IsNaN(row[n]) {
					col = append(col, row[n])
				}
			}
		} else {
			for _, ui := range idx {
				row := s.AS[ui]
				if n < len(row) && !math.IsNaN(row[n]) {
					col = append(col, row[n])
				}
			}
		}
		if len(col) == 0 {
			out[n] = math.NaN()
			continue
		}
		v, err := stats.Quantile(col, q)
		if err != nil {
			out[n] = math.NaN()
			continue
		}
		out[n] = v
	}
	return out
}

// naiveEstimateNP is EstimateNP on the naive path: the same point fit and
// the same stats.BootstrapCIParallel loop, with every VAS vector (point and
// per resample) gathered, copied and sorted by vasIdx.
func naiveEstimateNP(s *Samples, p float64, cfg EstimateConfig) (Estimate, error) {
	if p <= 0 || p >= 1 {
		return Estimate{}, errors.New("core: P must be in (0,1)")
	}
	point, err := FitVAS(s.vasIdx(p, nil), s.FloorValue)
	if err != nil {
		return Estimate{}, err
	}
	est := Estimate{P: p, NP: point.NP, R2: point.R2, Fit: point, Strategy: s.Strategy}
	if cfg.BootstrapIters > 0 {
		if cfg.Rand == nil {
			return Estimate{}, errors.New("core: EstimateConfig.Rand required for bootstrap")
		}
		level := cfg.CILevel
		if level <= 0 || level >= 1 {
			level = 0.95
		}
		ci, _, err := stats.BootstrapCIParallel(s.NumUsers(), cfg.BootstrapIters, cfg.Parallelism, level, cfg.Rand,
			func(idx []int) (float64, error) {
				fit, err := FitVAS(s.vasIdx(p, idx), s.FloorValue)
				if err != nil {
					return 0, err
				}
				return fit.NP, nil
			})
		if err != nil {
			return Estimate{}, fmt.Errorf("core: bootstrap: %w", err)
		}
		est.CI = ci
		est.BootstrapIters = cfg.BootstrapIters
	}
	return est, nil
}

// sampleCountScan is SampleCountAt's naive O(U) rescan: the users whose row
// holds a non-NaN sample at combination size n (1-based).
func (s *Samples) sampleCountScan(n int) int {
	count := 0
	for _, row := range s.AS {
		if n-1 >= 0 && n-1 < len(row) && !math.IsNaN(row[n-1]) {
			count++
		}
	}
	return count
}
