package serving

import (
	"context"
	"math"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
	"nanotarget/internal/worldcfg"
)

// smallConfig is the property-test world: big enough to exercise the share
// machinery, small enough to build 14 shard models per seed in test time.
// The population is deliberately not divisible by the tested shard counts so
// range arithmetic sees uneven splits.
func smallConfig(seed uint64) worldcfg.Config {
	cfg := worldcfg.Default()
	cfg.Population.Seed = seed
	cfg.Population.CatalogSize = 2000
	cfg.Population.Population = 10_000_001
	cfg.Population.ActivityGrid = 64
	return cfg
}

// randomClauses draws a flexible-spec union: 1–4 AND-clauses of 1–4 catalog
// interests each.
func randomClauses(r *rng.Rand, catalogSize int) [][]interest.ID {
	clauses := make([][]interest.ID, 1+r.Intn(4))
	for i := range clauses {
		clause := make([]interest.ID, 1+r.Intn(4))
		for j := range clause {
			clause[j] = interest.ID(1 + r.Intn(catalogSize-1))
		}
		clauses[i] = clause
	}
	return clauses
}

// randomFilter draws a demographic filter spanning the geo/age/gender axes.
func randomFilter(r *rng.Rand) population.DemoFilter {
	var f population.DemoFilter
	switch r.Intn(3) {
	case 1:
		f.Countries = []string{"US"}
	case 2:
		f.Countries = []string{"ES", "FR"}
	}
	if r.Intn(2) == 1 {
		f.AgeMin = 18 + r.Intn(20)
		f.AgeMax = f.AgeMin + r.Intn(30)
	}
	if r.Intn(2) == 1 {
		f.Genders = []population.Gender{population.GenderFemale}
	}
	return f
}

// TestShardedReachMatchesSingleWorld is the ISSUE's acceptance property:
// for random conjunctions/unions and demographic filters, scatter-gather
// reach over {1,2,3,8} shards equals the single-world answer — byte-identical
// at shards=1, within 1e-12 relative at shards>1 — across seeds {0,1,42}.
func TestShardedReachMatchesSingleWorld(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		cfg := smallConfig(seed)
		local, err := NewLocalBackendFromConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, shards := range []int{1, 2, 3, 8} {
			sharded, err := NewShardedBackend(context.Background(), cfg, shards)
			if err != nil {
				t.Fatal(err)
			}
			if got := sharded.NumShards(); got != shards {
				t.Fatalf("NumShards = %d, want %d", got, shards)
			}
			if sharded.Population() != local.Population() {
				t.Fatalf("population mismatch: %d vs %d", sharded.Population(), local.Population())
			}
			r := rng.New(seed).Derive("property-queries")
			for trial := 0; trial < 40; trial++ {
				clauses := randomClauses(r, cfg.Population.CatalogSize)
				want := local.UnionShare(context.Background(), clauses)
				got := sharded.UnionShare(context.Background(), clauses)
				checkShare(t, "UnionShare", seed, shards, trial, got, want)

				f := randomFilter(r)
				wantD := local.DemoShare(context.Background(), f)
				gotD := sharded.DemoShare(context.Background(), f)
				checkShare(t, "DemoShare", seed, shards, trial, gotD, wantD)

				// The Appendix C group path: composite (filter, conjunction)
				// audiences must agree shard-for-shard like the raw shares —
				// byte-identical at one shard (same composition arithmetic
				// over the same factor shares), reassociation-only above.
				conj := clauses[0]
				wantC := local.ConditionalAudience(context.Background(), f, conj)
				gotC := sharded.ConditionalAudience(context.Background(), f, conj)
				checkShare(t, "ConditionalAudience", seed, shards, trial, gotC, wantC)

				// The reach estimate's one-call path agrees like its factors.
				localD, localU := local.ReachShares(context.Background(), f, clauses)
				if localD != wantD || localU != want {
					t.Fatalf("seed %d trial %d: local ReachShares = (%v, %v), separate calls (%v, %v)",
						seed, trial, localD, localU, wantD, want)
				}
				gotRD, gotRU := sharded.ReachShares(context.Background(), f, clauses)
				checkShare(t, "ReachShares demo", seed, shards, trial, gotRD, wantD)
				checkShare(t, "ReachShares union", seed, shards, trial, gotRU, want)
			}
		}
	}
}

func checkShare(t *testing.T, what string, seed uint64, shards, trial int, got, want float64) {
	t.Helper()
	if shards == 1 {
		if got != want {
			t.Fatalf("seed %d shards=1 trial %d: %s = %v, single-world %v — must be byte-identical",
				seed, trial, what, got, want)
		}
		return
	}
	diff := math.Abs(got - want)
	if diff == 0 {
		return
	}
	rel := diff / math.Abs(want)
	if !(rel <= 1e-12) { // NaN-safe: catches want==0 with got!=0 too
		t.Fatalf("seed %d shards=%d trial %d: %s = %v, single-world %v (rel err %.3g > 1e-12)",
			seed, shards, trial, what, got, want, rel)
	}
}

// TestShardRangesTile checks the user-ID ranges partition [0, pop) exactly,
// including populations that do not divide evenly.
func TestShardRangesTile(t *testing.T) {
	cfg := smallConfig(1)
	for _, shards := range []int{1, 2, 3, 8} {
		b, err := NewShardedBackend(context.Background(), cfg, shards)
		if err != nil {
			t.Fatal(err)
		}
		ranges := b.Ranges()
		if len(ranges) != shards {
			t.Fatalf("got %d ranges, want %d", len(ranges), shards)
		}
		var lo, total int64
		for i, r := range ranges {
			if r.Lo != lo {
				t.Fatalf("shards=%d: range %d starts at %d, want %d (gap or overlap)", shards, i, r.Lo, lo)
			}
			if r.Size() <= 0 {
				t.Fatalf("shards=%d: range %d is empty", shards, i)
			}
			lo = r.Hi
			total += r.Size()
		}
		if lo != cfg.Population.Population || total != cfg.Population.Population {
			t.Fatalf("shards=%d: ranges cover [0, %d), want [0, %d)", shards, lo, cfg.Population.Population)
		}
	}
}

func TestShardedBackendConstructionErrors(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewShardedBackend(context.Background(), cfg, 0); err == nil {
		t.Fatal("0 shards should fail")
	}
	cfg.Population.Population = 4
	if _, err := NewShardedBackend(context.Background(), cfg, 5); err == nil {
		t.Fatal("more shards than users should fail")
	}
}

func TestLocalBackendConstruction(t *testing.T) {
	cfg := smallConfig(1)
	if _, err := NewLocalBackend(nil, nil); err == nil {
		t.Fatal("nil model should fail")
	}
	a, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewLocalBackendFromConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// An engine from one world cannot front another world's model.
	if _, err := NewLocalBackend(a.Model(), b.Engine()); err == nil {
		t.Fatal("mismatched engine/model should fail")
	}
	// A nil engine gets a default cached engine over the model.
	c, err := NewLocalBackend(a.Model(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.Engine() == nil || c.Engine().Model() != a.Model() {
		t.Fatal("default engine not wired to the model")
	}
}

// TestShardedStatsAndWarmRows covers the cross-shard folds: cache counters
// sum over shards, and WarmRows warms every shard.
func TestShardedStatsAndWarmRows(t *testing.T) {
	cfg := smallConfig(1)
	b, err := NewShardedBackend(context.Background(), cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	b.WarmRows(context.Background())
	// Single-interest clauses take the cached conjunction path.
	clauses := [][]interest.ID{{1}, {3}}
	b.UnionShare(context.Background(), clauses)
	b.UnionShare(context.Background(), clauses)
	st := b.AudienceStats(context.Background())
	// Every shard served the same two queries: one miss then one hit each.
	if st.Prefix.Misses+st.Set.Misses == 0 {
		t.Fatalf("no misses recorded across shards: %+v", st)
	}
	if st.Prefix.Hits+st.Set.Hits == 0 {
		t.Fatalf("no hits recorded across shards: %+v", st)
	}
	if st.Prefix.Capacity != 3*b.shards[0].engine.Stats().Prefix.Capacity {
		t.Fatalf("capacity should fold across 3 shards: %+v", st)
	}
}
