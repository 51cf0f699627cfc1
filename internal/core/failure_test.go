package core

import (
	"errors"
	"math"
	"sync/atomic"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// flakySource fails on the k-th call — models the Ads API's rate limiting
// or account closure mid-collection (§8.2). Collect queries it from several
// workers at once, so the call counter is atomic.
type flakySource struct {
	calls   atomic.Int64
	failAt  int64
	failErr error
}

func (f *flakySource) PotentialReach(ids []interest.ID) (int64, error) {
	if f.calls.Add(1) == f.failAt {
		return 0, f.failErr
	}
	v := int64(1e6 / (len(ids) * len(ids)))
	if v < 20 {
		v = 20
	}
	return v, nil
}

func (f *flakySource) Floor() int64 { return 20 }

func TestCollectPropagatesSourceErrors(t *testing.T) {
	users := panelUsers(5, 30)
	wantErr := errors.New("account disabled")
	src := &flakySource{failAt: 17, failErr: wantErr}
	_, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(1)})
	if err == nil {
		t.Fatal("mid-collection failure swallowed")
	}
	if !errors.Is(err, wantErr) {
		t.Fatalf("error chain lost: %v", err)
	}
}

// shortCircuitSource returns a constant: the degenerate case where VAS
// never decays and the fit must fail loudly instead of producing a bogus
// N_P.
type constSource struct{}

func (constSource) PotentialReach([]interest.ID) (int64, error) { return 5000, nil }
func (constSource) Floor() int64                                { return 20 }

func TestEstimateRejectsFlatVAS(t *testing.T) {
	users := panelUsers(10, 30)
	s, err := Collect(users, Random{}, constSource{}, CollectConfig{Seed: rng.New(2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EstimateNP(s, 0.9, EstimateConfig{}); err == nil {
		t.Fatal("flat VAS produced an estimate")
	}
}

// TestBootstrapSkipsDegenerateResamples injects a panel where one user's
// row dominates: resamples drawing only that user produce constant-x fits
// which must be skipped, not crash the CI.
func TestBootstrapSkipsDegenerateResamples(t *testing.T) {
	users := panelUsers(3, 30)
	src := powerLawSource(2, 1e6, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{Seed: rng.New(3)})
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt two rows to NaN beyond N=1 so single-user resamples of those
	// rows cannot be fit (fewer than 2 points).
	for u := 0; u < 2; u++ {
		for n := 1; n < len(s.AS[u]); n++ {
			s.AS[u][n] = math.NaN()
		}
	}
	est, err := EstimateNP(s, 0.5, EstimateConfig{BootstrapIters: 300, CILevel: 0.95, Rand: rng.New(4)})
	if err != nil {
		t.Fatalf("bootstrap failed on degenerate resamples: %v", err)
	}
	if est.NP <= 0 {
		t.Fatalf("bad estimate %v", est.NP)
	}
}

func TestSampleCountsMatchPaperSemantics(t *testing.T) {
	// Mixed profile sizes: the per-N sample count decreases like the
	// paper's footnote 2 (the N=25 vector has 2,286 of 2,390 samples).
	mixed := append(panelUsers(6, 25), panelUsers(4, 10)...)
	for i, u := range mixed {
		u.ID = int64(i) // unique IDs for deterministic selection
	}
	src := powerLawSource(1.5, 1e7, 20)
	s, err := Collect(mixed, Random{}, src, CollectConfig{Seed: rng.New(5)})
	if err != nil {
		t.Fatal(err)
	}
	if got := s.SampleCountAt(10); got != 10 {
		t.Fatalf("N=10 count %d, want 10", got)
	}
	if got := s.SampleCountAt(25); got != 6 {
		t.Fatalf("N=25 count %d, want 6", got)
	}
}

func TestFitVASHandlesFloorOnlyTail(t *testing.T) {
	// A VAS that starts above the floor and drops straight to it: the
	// censoring rule keeps exactly the first floored point.
	for floorRun := 1; floorRun <= 5; floorRun++ {
		vas := []float64{1e8, 1e5}
		for i := 0; i < floorRun; i++ {
			vas = append(vas, 20)
		}
		fit, err := FitVAS(vas, 20)
		if err != nil {
			t.Fatalf("run %d: %v", floorRun, err)
		}
		if fit.PointsUsed != 3 {
			t.Fatalf("run %d: PointsUsed = %d, want 3", floorRun, fit.PointsUsed)
		}
	}
}

func TestCollectMaxNClamped(t *testing.T) {
	users := panelUsers(3, 40)
	src := powerLawSource(1.5, 1e7, 20)
	s, err := Collect(users, Random{}, src, CollectConfig{MaxN: 99, Seed: rng.New(6)})
	if err != nil {
		t.Fatal(err)
	}
	if s.MaxN != MaxCombinationInterests {
		t.Fatalf("MaxN = %d, want clamped to %d", s.MaxN, MaxCombinationInterests)
	}
}

func TestSelectorRandStability(t *testing.T) {
	// Per-user derived streams: reordering the panel must not change any
	// individual user's selection.
	u1 := panelUsers(1, 30)[0]
	u2 := panelUsers(1, 30)[0]
	u2.ID = 77
	parent := rng.New(9)
	sel := Random{}
	pick := func(u *population.User) []interest.ID {
		return sel.Select(u, nil, 10, selectorRand(parent, sel, u))
	}
	a1 := pick(u1)
	_ = pick(u2)
	b1 := pick(u1) // again, after "processing" another user
	for i := range a1 {
		if a1[i] != b1[i] {
			t.Fatal("user selection depends on panel processing order")
		}
	}
}
