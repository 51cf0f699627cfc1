package serving

import (
	"testing"

	"nanotarget/internal/interest"
	"nanotarget/internal/population"
	"nanotarget/internal/rng"
)

// kernelGridPasses independently counts the contiguous grid loops
// population.Model.UnionConjunctionShare runs for a clause set, by walking the
// kernel's control flow rather than SpecCost's arithmetic: a one-interest
// clause folds its row straight into the product (one pass); a multi-interest
// clause multiplies one row pass per interest into its miss vector and then
// pays one fold pass turning the miss vector into the clause factor.
func kernelGridPasses(clauses [][]interest.ID) int {
	passes := 0
	for _, clause := range clauses {
		if len(clause) == 1 {
			passes++
			continue
		}
		passes += len(clause)
		passes++
	}
	return passes
}

// demoTerms mirrors DemoShare's per-dimension lookups: one term per
// non-trivial filter dimension.
func demoTerms(f population.DemoFilter) int {
	terms := 0
	if len(f.Countries) > 0 {
		terms++
	}
	if len(f.Genders) > 0 {
		terms++
	}
	if f.AgeMin != 0 || f.AgeMax != 0 {
		terms++
	}
	return terms
}

// TestSpecCostMatchesKernelWork gates SpecCost against an independent count
// of the row-kernel's grid passes (kernelGridPasses above, derived from
// UnionConjunctionShare's loop structure) across randomized spec shapes: the
// admission controller must charge the work the backend will actually do.
func TestSpecCostMatchesKernelWork(t *testing.T) {
	r := rng.New(7).Derive("spec-cost")
	filters := []population.DemoFilter{
		{},
		{Countries: []string{"US"}},
		{Countries: []string{"US", "ES"}, Genders: []population.Gender{population.GenderFemale}},
		{AgeMin: 18, AgeMax: 35},
		{Countries: []string{"DE"}, Genders: []population.Gender{population.GenderMale}, AgeMin: 21},
	}
	for trial := 0; trial < 200; trial++ {
		f := filters[r.Intn(len(filters))]
		nClauses := r.Intn(5)
		clauses := make([][]interest.ID, nClauses)
		for c := range clauses {
			clause := make([]interest.ID, 1+r.Intn(6))
			for i := range clause {
				clause[i] = interest.ID(1 + r.Intn(1000))
			}
			clauses[c] = clause
		}
		want := float64(1 + demoTerms(f) + kernelGridPasses(clauses))
		if got := SpecCost(f, clauses); got != want {
			t.Fatalf("trial %d: SpecCost(%+v, %v) = %v, kernel does %v passes' work",
				trial, f, clauses, got, want)
		}
	}
}

// TestSpecCostPinnedExamples pins the two costs the docs quote: a bare
// country probe and the paper's 18-interest conjunction.
func TestSpecCostPinnedExamples(t *testing.T) {
	bare := population.DemoFilter{Countries: []string{"ES"}}
	if got := SpecCost(bare, nil); got != 2 {
		t.Fatalf("bare country probe costs %v, want 2", got)
	}
	conj := make([]interest.ID, 18)
	for i := range conj {
		conj[i] = interest.ID(i + 1)
	}
	if got := SpecCost(bare, [][]interest.ID{conj}); got != 21 {
		t.Fatalf("18-interest conjunction costs %v, want 21 (2 base + 18 rows + 1 fold)", got)
	}
}

// TestSpecCostMonotonicInInterests: adding an interest can only add work.
func TestSpecCostMonotonicInInterests(t *testing.T) {
	f := population.DemoFilter{Countries: []string{"US"}}
	var ids []interest.ID
	prev := SpecCost(f, nil)
	for i := 1; i <= 25; i++ {
		ids = append(ids, interest.ID(i))
		cur := SpecCost(f, [][]interest.ID{ids})
		if cur <= prev {
			t.Fatalf("cost fell from %v to %v adding interest %d", prev, cur, i)
		}
		prev = cur
	}
	// Sanity: the charged unit is comparable across clause shapes — the same
	// interests as one big clause vs singleton clauses differ only by the
	// single fold pass.
	singletons := make([][]interest.ID, len(ids))
	for i, id := range ids {
		singletons[i] = []interest.ID{id}
	}
	one := SpecCost(f, [][]interest.ID{ids})
	many := SpecCost(f, singletons)
	if one != many+1 {
		t.Fatalf("one %d-interest clause costs %v, %d singleton clauses cost %v; want exactly one extra fold pass",
			len(ids), one, len(ids), many)
	}
}
