package serving

import (
	"context"
	"fmt"

	"nanotarget/internal/audience"
	"nanotarget/internal/interest"
	"nanotarget/internal/parallel"
	"nanotarget/internal/population"
	"nanotarget/internal/worldcfg"
)

// ShardRange is the user-ID range [Lo, Hi) a shard owns.
type ShardRange struct {
	Lo, Hi int64
}

// Size returns the number of users in the range.
func (r ShardRange) Size() int64 { return r.Hi - r.Lo }

// shardRanges splits [0, pop) into count user-ID ranges: shard s owns
// [pop·s/count, pop·(s+1)/count). Integer range arithmetic tiles [0, pop)
// exactly, and every deployment (in process, shard process, proxy) derives
// its ranges here, so all of them agree on which shard owns which users.
func shardRanges(pop int64, count int) ([]ShardRange, error) {
	if count < 1 {
		return nil, fmt.Errorf("serving: shard count %d must be >= 1", count)
	}
	if int64(count) > pop {
		return nil, fmt.Errorf("serving: %d shards exceed population %d", count, pop)
	}
	ranges := make([]ShardRange, count)
	for i := range ranges {
		ranges[i] = ShardRange{Lo: pop * int64(i) / int64(count), Hi: pop * int64(i+1) / int64(count)}
	}
	return ranges, nil
}

// newShardWorld builds the world of the shard owning r: a model calibrated
// over the shared catalog at the range's population, fronted by its own
// engine. Every shard deployment builds its world here.
func newShardWorld(cfg worldcfg.Config, cat *interest.Catalog, index int, r ShardRange) (*LocalBackend, error) {
	model, err := cfg.BuildModel(cat, r.Size())
	if err != nil {
		return nil, fmt.Errorf("serving: shard %d: %w", index, err)
	}
	return &LocalBackend{model: model, engine: cfg.NewEngine(model)}, nil
}

// shardCaller answers one shard's part of a shardFold query. A shard
// *LocalBackend answers in process; the proxy's remoteShard answers over the
// shard RPC.
type shardCaller interface {
	// shares evaluates q's factors on the shard. body is q's wire encoding
	// and bud the query's retry budget, both made once per gather for the
	// whole fan-out; an in-process fold leaves them nil.
	shares(ctx context.Context, q *sharesRequest, body []byte, bud *queryBudget) (shares, error)
	// stats returns the shard's audience-cache counters; a shard that cannot
	// answer contributes zero counters.
	stats(ctx context.Context, bud *queryBudget) audience.Stats
	// WarmRows materializes the shard's inclusion rows (best effort).
	WarmRows(ctx context.Context)
}

// shardFold is the one scatter-gather fold behind ShardedBackend and
// ProxyBackend: it scatters every query to its shard callers and folds the
// per-shard shares into the global answer. See the package comment for why
// the fold is exact.
type shardFold struct {
	catalog *interest.Catalog
	pop     int64
	ranges  []ShardRange
	weights []float64 // ranges[s].Size() / pop
	shards  []shardCaller

	// A fold over remote shards (the proxy's) also carries their failure
	// handling. An in-process fold leaves these zero: its shard calls cannot
	// fail and never cross the wire.
	health      *healthMonitor // per-replica up/down state
	urls        [][]string     // per shard, its replica base URLs
	policy      Policy
	retryBudget int // per-query retry cap; <= 0 means uncapped
}

func newShardFold(cat *interest.Catalog, pop int64, ranges []ShardRange, shards []shardCaller) shardFold {
	weights := make([]float64, len(ranges))
	for i, r := range ranges {
		weights[i] = float64(r.Size()) / float64(pop)
	}
	return shardFold{catalog: cat, pop: pop, ranges: ranges, weights: weights, shards: shards}
}

// NumShards returns the shard count.
func (f *shardFold) NumShards() int { return len(f.shards) }

// Ranges returns every shard's user-ID range in shard order.
func (f *shardFold) Ranges() []ShardRange { return append([]ShardRange(nil), f.ranges...) }

// Catalog implements ReachBackend.
func (f *shardFold) Catalog() *interest.Catalog { return f.catalog }

// Population implements ReachBackend.
func (f *shardFold) Population() int64 { return f.pop }

// DemoShare implements ReachBackend. Like every fold share method it panics
// with *CanceledError when the caller's context ends mid-gather, and — over
// remote shards — with *UnavailableError when the topology cannot serve
// under the policy.
func (f *shardFold) DemoShare(ctx context.Context, d population.DemoFilter) float64 {
	return f.gather(ctx, sharesRequest{mask: 1 << factorDemo, filter: d})[factorDemo]
}

// UnionShare implements ReachBackend.
func (f *shardFold) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	return f.gather(ctx, sharesRequest{mask: 1 << factorUnion, clauses: clauses})[factorUnion]
}

// ReachShares implements ReachBackend: one call per shard evaluates both
// factors.
func (f *shardFold) ReachShares(ctx context.Context, d population.DemoFilter, clauses [][]interest.ID) (demo, union float64) {
	v := f.gather(ctx, sharesRequest{mask: 1<<factorDemo | 1<<factorUnion, filter: d, clauses: clauses})
	return v[factorDemo], v[factorUnion]
}

// ConditionalAudience implements ReachBackend: one call per shard gathers
// both factor shares (each served from the shards' cached demo and
// conjunction levels), composed with the global population — the same
// arithmetic the local engine's ExpectedAudienceConditional applies, so one
// shard reproduces the local path byte-identically and more shards deviate
// only by the gather's reassociation.
func (f *shardFold) ConditionalAudience(ctx context.Context, d population.DemoFilter, ids []interest.ID) float64 {
	v := f.gather(ctx, sharesRequest{mask: 1<<factorDemo | 1<<factorConj, filter: d, ids: ids})
	return conditionalAudience(f.pop, v[factorDemo], v[factorConj])
}

// AudienceStats implements ReachBackend: the fold of every shard's cache
// counters. Stats are diagnostics: a remote shard that cannot answer
// contributes nothing rather than failing the call, and with replicas the
// counters describe whichever replica answered.
func (f *shardFold) AudienceStats(ctx context.Context) audience.Stats {
	bud := newQueryBudget(f.retryBudget)
	per := make([]audience.Stats, len(f.shards))
	_ = parallel.ForEach(ctx, len(f.shards), len(f.shards), func(i int) error {
		per[i] = f.shards[i].stats(ctx, bud)
		return nil
	})
	var total audience.Stats
	for _, st := range per {
		total = addStats(total, st)
	}
	return total
}

// WarmRows implements ReachBackend: every shard materializes its inclusion
// rows, in parallel. A cancelled ctx stops warming unclaimed shards
// (warming is an optimization, so partial completion is harmless).
func (f *shardFold) WarmRows(ctx context.Context) {
	_ = parallel.ForEach(ctx, len(f.shards), len(f.shards), func(i int) error {
		f.shards[i].WarmRows(ctx)
		return nil
	})
}

// gather scatters q to every shard under the caller's context and folds
// each requested factor's answers, deterministically (shard-index order):
//
//   - PolicyFail with any shard dead (every replica down): panic
//     *UnavailableError before any call, naming the dead replicas;
//   - one answering shard (a one-shard topology, or the single survivor
//     under PolicyRenormalize): its bare shares — the renormalized weight
//     is exactly 1, so this is what the arithmetic below would give without
//     the (w·s)/w rounding detour;
//   - every shard answered: Σ weight_s · share_s;
//   - PolicyFail and any shard failed, or no shard answered: panic
//     *UnavailableError naming the failed shards' replicas;
//   - PolicyRenormalize: failed shards (a dead one fails without an RPC)
//     are excluded and the live terms renormalized:
//     Σ_live weight_s · share_s / Σ_live weight_s.
//
// If ctx ends before the gather completes the method panics *CanceledError
// instead of folding partial answers. In process that stops unclaimed shard
// evaluations (claimed ones finish); remote shards abandon their RPCs, and
// the failures that caused are not held against the replicas.
func (f *shardFold) gather(ctx context.Context, q sharesRequest) shares {
	var body []byte
	if f.health != nil {
		if down := f.health.deadURLs(); f.policy == PolicyFail && len(down) > 0 {
			panic(&UnavailableError{Down: down})
		}
		body = q.appendTo(nil)
	}
	bud := newQueryBudget(f.retryBudget)
	type answer struct {
		v   shares
		err error
	}
	per := make([]answer, len(f.shards))
	_ = parallel.ForEach(ctx, len(f.shards), len(f.shards), func(i int) error {
		per[i].v, per[i].err = f.shards[i].shares(ctx, &q, body, bud)
		return nil
	})
	if err := ctx.Err(); err != nil {
		panic(&CanceledError{Err: err})
	}

	var total shares
	var down []string
	live, lastLive, mass := 0, -1, 0.0
	for i, a := range per {
		if a.err != nil {
			down = append(down, f.urls[i]...)
			continue
		}
		live, lastLive, mass = live+1, i, mass+f.weights[i]
		for k := range total {
			total[k] += f.weights[i] * a.v[k]
		}
	}
	if (f.policy == PolicyFail && len(down) > 0) || live == 0 {
		panic(&UnavailableError{Down: down})
	}
	if live == 1 {
		return per[lastLive].v
	}
	if len(down) > 0 {
		for k := range total {
			total[k] /= mass
		}
	}
	return total
}

// ShardedBackend serves reach estimates from N in-process backend shards:
// the shard fold over shard *LocalBackends. Every query scatters to all
// shards over internal/parallel and gathers weight_s · share_s in
// shard-index order — deterministic under any worker schedule,
// byte-identical to LocalBackend at N=1 (the single answer is returned
// bare) and within 1e-12 relative at N>1 (the per-shard shares are
// bit-identical; only the weighted sum reassociates). In-process shards
// cannot fail, so the only panic is *CanceledError. See the package
// comment for the full exactness argument.
type ShardedBackend struct {
	shardFold
}

// NewShardedBackend builds n shards from one world configuration — the same
// struct nanotarget.NewWorldFromConfig consumes. The interest catalog is
// generated once and shared; each shard calibrates its own model over it
// (bit-identical rates and grid regardless of range size, see
// worldcfg.Config.BuildModel) and fronts it with its own audience engine.
// Shard construction itself fans out over internal/parallel under ctx, so
// an aborted boot (SIGINT during a multi-minute bench-scale build) stops
// calibrating shards instead of finishing work nobody wants.
func NewShardedBackend(ctx context.Context, cfg worldcfg.Config, n int) (*ShardedBackend, error) {
	pop := cfg.Population.Population
	ranges, err := shardRanges(pop, n)
	if err != nil {
		return nil, err
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	shards, err := parallel.Map(ctx, n, cfg.Parallelism, func(i int) (shardCaller, error) {
		return newShardWorld(cfg, cat, i, ranges[i])
	})
	if err != nil {
		return nil, err
	}
	return &ShardedBackend{newShardFold(cat, pop, ranges, shards)}, nil
}
