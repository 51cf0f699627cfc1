package population

import (
	"sync"
	"testing"

	"nanotarget/internal/interest"
)

// The row-kernel benchmarks run on the model the repository's bench world
// calibrates (seed 1, 20,000-interest catalog, 256-point grid), so their
// ns/op stay comparable with the root package's audience benchmarks.
var (
	benchModelOnce sync.Once
	benchModel     *Model
)

func getBenchModel(b *testing.B) *Model {
	b.Helper()
	benchModelOnce.Do(func() { benchModel = worldModel(b, 1, 20000, 256) })
	return benchModel
}

// benchConjunction returns the 18-interest probe the kernel benches share:
// a cache-cold conjunction whose evaluation under inline exp() costs one
// transcendental per (interest, grid point).
func benchConjunction(cat *interest.Catalog) []interest.ID {
	ids := make([]interest.ID, 18)
	for i := range ids {
		ids[i] = interest.ID((i*811 + 17) % cat.Len())
	}
	return ids
}

// BenchmarkAudienceKernel measures the evaluation inner loop itself — the
// cost of a conjunction the audience CACHE has never seen — in three
// regimes: inline exp() (the expConjunctionShare oracle), the kernel with
// rows still unmaterialized (first touch: pays the exp() hoist once), and
// the kernel with rows warm (the steady state: contiguous multiply loops).
// exp vs rows-warm is the headline `cold_kernel_vs_exp` ratio in
// BENCH_audience.json; CI gates it at >= 2x.
func BenchmarkAudienceKernel(b *testing.B) {
	m := getBenchModel(b)
	ids := benchConjunction(m.Catalog())
	b.Run("exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if expConjunctionShare(m, ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ResetRows()
			if m.ConjunctionShare(ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-warm", func(b *testing.B) {
		m.WarmRows(ids...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.ConjunctionShare(ids) < 0 {
				b.Fatal("negative share")
			}
		}
	})
}

// BenchmarkAudienceUnion measures the flexible_spec OR-clause path
// (UnionConjunctionShare) against its inline-exp() triple-loop oracle
// (expUnionShare). Clause shape: four genuine 3-interest OR clauses plus
// three single-interest clauses, the mixed spec an Ads-Manager
// flexible_spec produces.
func BenchmarkAudienceUnion(b *testing.B) {
	m := getBenchModel(b)
	cat := m.Catalog()
	var clauses [][]interest.ID
	var flat []interest.ID
	for c := 0; c < 4; c++ {
		clause := make([]interest.ID, 3)
		for i := range clause {
			clause[i] = interest.ID((c*4409 + i*811 + 23) % cat.Len())
		}
		clauses = append(clauses, clause)
		flat = append(flat, clause...)
	}
	for c := 0; c < 3; c++ {
		id := interest.ID((c*7919 + 5) % cat.Len())
		clauses = append(clauses, []interest.ID{id})
		flat = append(flat, id)
	}
	b.Run("exp", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if expUnionShare(m, clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m.ResetRows()
			if m.UnionConjunctionShare(clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
	b.Run("rows-warm", func(b *testing.B) {
		m.WarmRows(flat...)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if m.UnionConjunctionShare(clauses) < 0 {
				b.Fatal("negative share")
			}
		}
	})
}
