package core

import (
	"sync"
	"testing"

	"nanotarget/internal/fdvt"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// testWorld is the calibrated model, audience engine and panel a world of
// the given size builds, assembled the way nanotarget.NewWorldFromConfig
// assembles it: the worldcfg catalog and model, then fdvt.BuildPanel on the
// master seed's "panel" stream.
type testWorld struct {
	model *population.Model
	src   *ModelSource
	users []*population.User
}

func buildTestWorld(t testing.TB, seed uint64, catalog, panel int, profileMedian float64, grid int) *testWorld {
	t.Helper()
	cfg := worldcfg.Default()
	cfg.Population.Seed = seed
	cfg.Population.CatalogSize = catalog
	cfg.Population.ActivityGrid = grid
	cat, err := cfg.BuildCatalog()
	if err != nil {
		t.Fatal(err)
	}
	model, err := cfg.BuildModel(cat, 0)
	if err != nil {
		t.Fatal(err)
	}
	fcfg := fdvt.DefaultPanelConfig(model)
	fcfg.Size = panel
	fcfg.ProfileMedian = profileMedian
	if fcfg.ProfileMax > float64(cat.Len()) {
		fcfg.ProfileMax = float64(cat.Len())
	}
	p, err := fdvt.BuildPanel(fcfg, cfg.Root().Derive("panel"))
	if err != nil {
		t.Fatal(err)
	}
	return &testWorld{model: model, src: NewEngineSource(cfg.NewEngine(model)), users: p.Users}
}

// TestColumnKernelIsByteIdentical gates the columnar bootstrap kernel on
// real worlds (seeds {0,1,42}, 4,000-interest catalog, 150-user panel,
// 128-point grid) against the naive oracles: VAS vectors at every study
// quantile against vasIdx, N_P point estimates, bootstrap percentile CIs
// and R² against naiveEstimateNP at workers 1 and 4, and sample counts
// against sampleCountScan, for both selection strategies. This is the
// "multiset quantile of a resample equals the quantile of its sorted
// expansion" contract of columns.go.
func TestColumnKernelIsByteIdentical(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		w := buildTestWorld(t, seed, 4000, 150, 120, 128)
		for _, sel := range []Selector{LeastPopular{}, Random{}} {
			s, err := Collect(w.users, sel, w.src, CollectConfig{Seed: rng.New(seed)})
			if err != nil {
				t.Fatal(err)
			}
			for _, q := range []float64{0.5, 0.8, 0.9, 0.95} {
				a, b := s.VAS(q), s.vasIdx(q, nil)
				for n := range a {
					if !bitsEqual(a[n], b[n]) {
						t.Fatalf("seed %d %s: VAS(%v)[%d] = %v kernel vs %v naive",
							seed, sel.Name(), q, n, a[n], b[n])
					}
				}
			}
			for _, workers := range []int{1, 4} {
				cfg := func() EstimateConfig {
					return EstimateConfig{BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(seed), Parallelism: workers}
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
					t.Fatalf("seed %d %s workers %d: estimate diverged: kernel %+v vs naive %+v",
						seed, sel.Name(), workers, ek, en)
				}
			}
			for n := 1; n <= s.MaxN; n++ {
				if got, want := s.SampleCountAt(n), s.sampleCountScan(n); got != want {
					t.Fatalf("seed %d %s: SampleCountAt(%d) = %d, naive scan says %d", seed, sel.Name(), n, got, want)
				}
			}
		}
	}
}

// The uniqueness-estimator benchmark runs on the repository's bench world:
// seed 1, 20,000-interest catalog, 600-user panel (profile median 200),
// 256-point grid.
var (
	benchWorldOnce sync.Once
	benchWorld     *testWorld
)

func getBenchWorld(b *testing.B) *testWorld {
	b.Helper()
	benchWorldOnce.Do(func() { benchWorld = buildTestWorld(b, 1, 20000, 600, 200, 256) })
	return benchWorld
}

// BenchmarkUniquenessEstimate is the acceptance benchmark for the columnar
// bootstrap kernel: one full EstimateNP (point fit + 1,000-iteration
// bootstrap CI; the paper runs 10,000) on pre-collected bench-world
// samples, with the kernel's presorted counting quantiles versus the
// naiveEstimateNP oracle's gather-copy-sort resamples. Both produce
// byte-identical estimates (TestColumnKernelIsByteIdentical); this bench
// records what the kernel buys in wall time — the kernel/naive ratio is the
// headline number in BENCH_uniqueness.json, CI-gated at >= 2x.
func BenchmarkUniquenessEstimate(b *testing.B) {
	w := getBenchWorld(b)
	s, err := Collect(w.users, Random{}, NewModelSource(w.model), CollectConfig{Seed: rng.New(1)})
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, estimate func(*Samples, float64, EstimateConfig) (Estimate, error)) {
		for i := 0; i < b.N; i++ {
			if _, err := estimate(s, 0.9, EstimateConfig{
				BootstrapIters: 1000,
				CILevel:        0.95,
				Rand:           rng.New(uint64(i)),
			}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("kernel", func(b *testing.B) {
		if _, err := EstimateNP(s, 0.9, EstimateConfig{}); err != nil {
			b.Fatal(err) // warm: build the column index outside the timer
		}
		b.ResetTimer()
		run(b, EstimateNP)
	})
	b.Run("naive", func(b *testing.B) { run(b, naiveEstimateNP) })
}
