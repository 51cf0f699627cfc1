package population

import (
	"math"
	"sync"
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/rng"
)

// worldModel builds the model a world of the given master seed calibrates:
// the catalog stream is derived with the "catalog" label exactly as
// worldcfg.Config.BuildCatalog derives it, over the paper's 1.5e9 base.
func worldModel(t testing.TB, seed uint64, catalogSize, grid int) *Model {
	t.Helper()
	icfg := interest.DefaultConfig()
	icfg.Size = catalogSize
	icfg.Population = 1_500_000_000
	cat, err := interest.Generate(icfg, rng.New(seed).Derive("catalog"))
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(cat)
	cfg.ActivityGridSize = grid
	m, err := NewModel(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func bitsEqual(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b)
}

// expConjunctionShare is the test-only oracle for the row kernel's
// conjunction path: the pre-kernel evaluation, with exp(−t·λ) computed
// inline per (interest, grid point) and multiplied into the survivor
// product as 1 − exp(−t·λ), then summed against the grid masses.
func expConjunctionShare(m *Model, ids []interest.ID) float64 {
	partial := make([]float64, len(m.actT))
	for k := range partial {
		partial[k] = 1
	}
	for _, id := range ids {
		lambda := m.lambda[id]
		for k, t := range m.actT {
			partial[k] *= 1 - math.Exp(-t*lambda)
		}
	}
	s := 0.0
	for k, p := range m.actP {
		s += p * partial[k]
	}
	return s
}

// expUnionShare is the test-only oracle for UnionConjunctionShare: the
// pre-kernel per-grid-point exp() triple loop, early break included.
func expUnionShare(m *Model, clauses [][]interest.ID) float64 {
	s := 0.0
	for k, t := range m.actT {
		prod := 1.0
		for _, clause := range clauses {
			miss := 1.0
			for _, id := range clause {
				miss *= math.Exp(-t * m.lambda[id])
			}
			prod *= 1 - miss
			if prod == 0 {
				break
			}
		}
		s += m.actP[k] * prod
	}
	return s
}

// TestRowKernelBitIdentical is the hoisting contract: every evaluation path
// the pipeline calls — incremental And (allocating and pooled), whole
// conjunctions, resumed queries (allocating and pooled, the audience
// engine's extension path) and flexible_spec unions — must return the exact
// bits of the inline-exp() oracles, on the models worlds of seeds
// {0, 1, 42} calibrate (4,000-interest catalog, 128-point grid).
func TestRowKernelBitIdentical(t *testing.T) {
	for _, seed := range []uint64{0, 1, 42} {
		m := worldModel(t, seed, 4000, 128)
		r := rng.New(seed ^ 21)
		catLen := m.Catalog().Len()
		randIDs := func(n int) []interest.ID {
			ids := make([]interest.ID, n)
			for i := range ids {
				ids[i] = interest.ID(r.Intn(catLen))
			}
			return ids
		}
		// Whole conjunctions and per-prefix shares.
		for trial := 0; trial < 60; trial++ {
			ids := randIDs(1 + r.Intn(25))
			q, pooled := m.NewQuery(), m.BorrowQuery()
			for i, id := range ids {
				q.And(id)
				pooled.And(id)
				want := expConjunctionShare(m, ids[:i+1])
				if got := q.Share(); !bitsEqual(got, want) {
					t.Fatalf("seed %d trial %d prefix %d: kernel %v != inline exp %v", seed, trial, i+1, got, want)
				}
				if got := pooled.Share(); !bitsEqual(got, want) {
					t.Fatalf("seed %d trial %d prefix %d: pooled kernel %v != inline exp %v", seed, trial, i+1, got, want)
				}
			}
			pooled.Release()
			want := expConjunctionShare(m, ids)
			if got := m.ConjunctionShare(ids); !bitsEqual(got, want) {
				t.Fatalf("seed %d trial %d: ConjunctionShare kernel %v != inline exp %v", seed, trial, got, want)
			}
			// Resuming mid-conjunction must agree too.
			if len(ids) > 2 {
				half := len(ids) / 2
				qh := m.BorrowQuery()
				for _, id := range ids[:half] {
					qh.And(id)
				}
				surv := qh.Survivors()
				qh.Release()
				res, pres := m.ResumeQuery(surv, half), m.BorrowResumeQuery(surv, half)
				for _, id := range ids[half:] {
					res.And(id)
					pres.And(id)
				}
				if got := res.Share(); !bitsEqual(got, want) {
					t.Fatalf("seed %d trial %d: resumed kernel %v != inline exp %v", seed, trial, got, want)
				}
				if got := pres.Share(); !bitsEqual(got, want) {
					t.Fatalf("seed %d trial %d: pooled resumed kernel %v != inline exp %v", seed, trial, got, want)
				}
				pres.Release()
			}
		}
		// flexible_spec unions: mixed single- and multi-interest clauses,
		// including the degenerate pure-conjunction shape.
		for trial := 0; trial < 60; trial++ {
			clauses := make([][]interest.ID, 1+r.Intn(6))
			for c := range clauses {
				clauses[c] = randIDs(1 + r.Intn(4))
			}
			if got, want := m.UnionConjunctionShare(clauses), expUnionShare(m, clauses); !bitsEqual(got, want) {
				t.Fatalf("seed %d trial %d: union kernel %v != inline exp %v (clauses %v)", seed, trial, got, want, clauses)
			}
		}
	}
}

// TestRowKernelLaziness pins the memory contract: no rows at construction,
// one row per touched interest, full table after WarmAllRows, empty after
// ResetRows.
func TestRowKernelLaziness(t *testing.T) {
	on := worldModel(t, 9, 1500, 128)
	if n, b := on.RowStats(); n != 0 || b != 0 {
		t.Fatalf("fresh model has %d rows (%d bytes) materialized", n, b)
	}
	ids := []interest.ID{3, 99, 711, 3, 99} // 3 distinct
	on.ConjunctionShare(ids)
	grid := len(on.actT)
	if n, b := on.RowStats(); n != 3 || b != int64(3*grid*8) {
		t.Fatalf("after touching 3 distinct interests: %d rows, %d bytes", n, b)
	}
	on.WarmRows(5, 6, 7)
	if n, _ := on.RowStats(); n != 6 {
		t.Fatalf("after WarmRows(3 more): %d rows", n)
	}
	on.WarmAllRows()
	if n, _ := on.RowStats(); n != on.Catalog().Len() {
		t.Fatalf("after WarmAllRows: %d rows, want %d", n, on.Catalog().Len())
	}
	on.ResetRows()
	if n, b := on.RowStats(); n != 0 || b != 0 {
		t.Fatalf("after ResetRows: %d rows, %d bytes", n, b)
	}
}

// TestRowInterning checks concurrent first touches intern one canonical row.
func TestRowInterning(t *testing.T) {
	on := worldModel(t, 9, 1500, 128)
	const goroutines = 8
	rows := make([][]float64, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rows[g] = on.row(42)
		}(g)
	}
	wg.Wait()
	for g := 1; g < goroutines; g++ {
		if &rows[g][0] != &rows[0][0] {
			t.Fatalf("goroutine %d holds a different row backing array", g)
		}
	}
	if n, _ := on.RowStats(); n != 1 {
		t.Fatalf("%d rows materialized for one interest", n)
	}
}

// TestBorrowQueryPool checks the pooled query API matches the allocating one
// and that released state cannot leak into the next borrow.
func TestBorrowQueryPool(t *testing.T) {
	on := worldModel(t, 9, 1500, 128)
	ids := []interest.ID{10, 20, 30, 40}
	want := on.ConjunctionShare(ids)

	q := on.BorrowQuery()
	for _, id := range ids {
		q.And(id)
	}
	if got := q.Share(); !bitsEqual(got, want) {
		t.Fatalf("borrowed query %v != %v", got, want)
	}
	surv := q.Survivors()
	q.Release()

	// A fresh borrow (very likely the recycled object) must start clean:
	// bit-equal to a brand-new query's empty share (Σ actP, not exactly 1).
	q2 := on.BorrowQuery()
	if got, fresh := q2.Share(), on.NewQuery().Share(); !bitsEqual(got, fresh) {
		t.Fatalf("recycled query not reset: empty share %v, want %v", got, fresh)
	}
	if q2.Len() != 0 {
		t.Fatalf("recycled query Len %d, want 0", q2.Len())
	}
	q2.Release()

	// BorrowResumeQuery must restore the exact survivor state.
	q3 := on.BorrowResumeQuery(surv, len(ids))
	if got := q3.Share(); !bitsEqual(got, want) {
		t.Fatalf("resumed borrowed query %v != %v", got, want)
	}
	if q3.Len() != len(ids) {
		t.Fatalf("resumed borrowed query Len %d != %d", q3.Len(), len(ids))
	}
	q3.Release()

	defer func() {
		if recover() == nil {
			t.Fatal("BorrowResumeQuery accepted a wrong-length survivor vector")
		}
	}()
	on.BorrowResumeQuery(make([]float64, 3), 1)
}
