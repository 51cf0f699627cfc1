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

// shard is one backend world: its user-ID range, the range's population
// mass, and the shard-local model/engine pair (own row-kernel state, own
// audience cache).
type shard struct {
	rng    ShardRange
	weight float64 // rng.Size() / total population
	model  *population.Model
	engine *audience.Engine
}

// ShardedBackend serves reach estimates from N in-process backend shards.
// Shard s owns user-ID range [pop·s/N, pop·(s+1)/N); integer range
// arithmetic guarantees the ranges tile [0, pop) exactly. Every query
// scatters to all shards over internal/parallel and gathers the per-shard
// shares as weight_s · share_s, summed in shard-index order — deterministic
// under any worker schedule, byte-identical to LocalBackend at N=1 (the
// single term is 1.0 · share) and within 1e-12 relative at N>1 (the
// per-shard shares are bit-identical; only the weighted sum reassociates).
// See the package comment for the full exactness argument.
type ShardedBackend struct {
	catalog *interest.Catalog
	pop     int64
	shards  []*shard
	workers int
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
	if n < 1 {
		return nil, fmt.Errorf("serving: shard count %d must be >= 1", n)
	}
	pop := cfg.Population.Population
	if int64(n) > pop {
		return nil, fmt.Errorf("serving: %d shards exceed population %d", n, pop)
	}
	cat, err := cfg.BuildCatalog()
	if err != nil {
		return nil, err
	}
	shards, err := parallel.Map(ctx, n, cfg.Parallelism, func(i int) (*shard, error) {
		r := ShardRange{Lo: pop * int64(i) / int64(n), Hi: pop * int64(i+1) / int64(n)}
		model, err := cfg.BuildModel(cat, r.Size())
		if err != nil {
			return nil, fmt.Errorf("serving: shard %d: %w", i, err)
		}
		return &shard{
			rng:    r,
			weight: float64(r.Size()) / float64(pop),
			model:  model,
			engine: cfg.NewEngine(model),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ShardedBackend{catalog: cat, pop: pop, shards: shards, workers: n}, nil
}

// NumShards returns the shard count.
func (b *ShardedBackend) NumShards() int { return len(b.shards) }

// Ranges returns every shard's user-ID range in shard order.
func (b *ShardedBackend) Ranges() []ShardRange {
	out := make([]ShardRange, len(b.shards))
	for i, s := range b.shards {
		out[i] = s.rng
	}
	return out
}

// Catalog implements ReachBackend.
func (b *ShardedBackend) Catalog() *interest.Catalog { return b.catalog }

// Population implements ReachBackend.
func (b *ShardedBackend) Population() int64 { return b.pop }

// scatterGather evaluates the request's factors on every shard under the
// caller's context and folds each factor's per-shard shares into the global
// share in shard-index order. Evaluation never fails, so the only
// parallel.Map error is the context's: a caller that gave up mid-fan-out gets
// *CanceledError (panic, recovered by the HTTP tier) instead of a fabricated
// share. Shards are CPU-bound, so cancellation stops UNCLAIMED shard
// evaluations; claimed ones finish.
func (b *ShardedBackend) scatterGather(ctx context.Context, q sharesRequest) shares {
	if len(b.shards) == 1 {
		// Single shard: skip the fan-out; weight is exactly 1.0 so the
		// gather arithmetic below would return the bare shares anyway.
		return evalShares(b.shards[0].engine, &q)
	}
	per, err := parallel.Map(ctx, len(b.shards), b.workers, func(i int) (shares, error) {
		return evalShares(b.shards[i].engine, &q), nil
	})
	if err != nil {
		panic(&CanceledError{Err: err})
	}
	var total shares
	for i, s := range b.shards {
		for k := range total {
			total[k] += s.weight * per[i][k]
		}
	}
	return total
}

// DemoShare implements ReachBackend.
func (b *ShardedBackend) DemoShare(ctx context.Context, f population.DemoFilter) float64 {
	return b.scatterGather(ctx, sharesRequest{mask: 1 << factorDemo, filter: f})[factorDemo]
}

// UnionShare implements ReachBackend.
func (b *ShardedBackend) UnionShare(ctx context.Context, clauses [][]interest.ID) float64 {
	return b.scatterGather(ctx, sharesRequest{mask: 1 << factorUnion, clauses: clauses})[factorUnion]
}

// ReachShares implements ReachBackend: one scatter evaluates both factors on
// each shard.
func (b *ShardedBackend) ReachShares(ctx context.Context, f population.DemoFilter, clauses [][]interest.ID) (demo, union float64) {
	v := b.scatterGather(ctx, sharesRequest{mask: 1<<factorDemo | 1<<factorUnion, filter: f, clauses: clauses})
	return v[factorDemo], v[factorUnion]
}

// ConditionalAudience implements ReachBackend: one scatter gathers both
// factor shares (each served from the shards' cached demo and conjunction
// levels), composed with the global population — the same arithmetic the
// local engine's ExpectedAudienceConditional applies, so one shard
// reproduces the local path byte-identically and more shards deviate only by
// the gather's reassociation.
func (b *ShardedBackend) ConditionalAudience(ctx context.Context, f population.DemoFilter, ids []interest.ID) float64 {
	v := b.scatterGather(ctx, sharesRequest{mask: 1<<factorDemo | 1<<factorConj, filter: f, ids: ids})
	return conditionalAudience(b.pop, v[factorDemo], v[factorConj])
}

// AudienceStats implements ReachBackend: the fold of every shard's cache
// counters.
func (b *ShardedBackend) AudienceStats(context.Context) audience.Stats {
	var st audience.Stats
	for _, s := range b.shards {
		st = addStats(st, s.engine.Stats())
	}
	return st
}

// WarmRows implements ReachBackend: every shard materializes its own full
// inclusion-row table, in parallel; a cancelled ctx stops warming unclaimed
// shards (warming is an optimization, so partial completion is harmless).
func (b *ShardedBackend) WarmRows(ctx context.Context) {
	_ = parallel.ForEach(ctx, len(b.shards), b.workers, func(i int) error {
		b.shards[i].model.WarmAllRows()
		return nil
	})
}
