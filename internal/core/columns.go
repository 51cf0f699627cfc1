package core

// The columnar bootstrap kernel.
//
// EstimateNP's bootstrap loop ("we repeat the data aggregation and model fit
// in 10,000 bootstrap samples", §4.2) is the estimator's hot path: every
// iteration the naive route re-scans the sample table per combination size N
// (append the resampled column, skip NaN holes), copies it, and sorts it for
// one quantile — O(MaxN·U·log U) with ~50 allocations per iteration. But a
// bootstrap resample is a multiset over a FIXED panel: the distinct values
// of column N never change between iterations, only their multiplicities do.
//
// The kernel presorts each column once into an immutable index —
// (value ascending, panel-row) pairs plus each row's non-NaN depth — and a
// resample becomes counting work: one pass over the resample tallies the
// row multiplicities into a pooled scratch vector and the resampled depths
// into a histogram, from which every column's expansion size follows (panel
// columns are prefix-shaped: a row contributes to columns 1..depth). A
// column's quantile is then a walk along its presorted values accumulating
// multiplicities to the target order statistics
// (stats.CountingQuantileSorted: one gather and one compare per position,
// with zero-count rows falling through the compare instead of taking a
// branch).
//
// The walk runs only for the columns the fit reads. The censoring rule
// (fitVASInto) stops at the first floored point, and it pulls columns
// through an accessor, so fitResample computes column n's quantile only
// when the rule reaches n. Per resample that is O(K·U) for the K
// columns up to the censor point, instead of O(MaxN·U), with zero
// allocations once warm. In nanobench's study-cold world (seed 1, P in
// {0.5, 0.8, 0.9, 0.95}) K is 2–4 of the 25 columns for least-popular
// selections and 8–16 for random ones.
//
// # Bit-identity
//
// This is a hoist in the same sense as the population inclusion-row kernel
// (internal/population/rows.go): the multiset quantile of a
// with-replacement resample equals the quantile of its sorted expansion, so
// the counting walk selects exactly the values sort.Float64s would have
// placed at the lo/hi order statistics, and the interpolation arithmetic
// applied to them is QuantileSorted's own expression. VAS vectors, FitVAS
// outputs, N_P point estimates and bootstrap percentile CIs are
// byte-identical to the naive path, which survives only as test oracles in
// oracle_test.go (vasIdx, naiveEstimateNP, sampleCountScan) — gated by
// TestColumnKernelIsByteIdentical (real worlds of seeds {0,1,42}, workers 1
// and 4), a differential fuzz target (FuzzColumnarVAS) and the golden pins,
// which must not move. The lazy fit is exact too: the rule
// reads column i only after columns 0..i-1 were non-NaN, positive and above
// the floor, and the bootstrap statistic is the fit's N_P alone, so a
// column the rule never reaches cannot change an output bit or an error
// (FuzzColumnarVAS compares fitResample with FitVAS on the naive vector;
// TestFitResamplePoisonedTail breaks every column past the censor point).
//
// # Memory envelope
//
// The index holds 12 bytes per non-NaN cell (8-byte value + 4-byte row
// index) plus 4 bytes per row for depths: ~700 KiB for the paper's
// 2,390-user × 25-column panel. It is built lazily on the first quantile
// query and shared by every subsequent VAS/EstimateNP call on the Samples.

import (
	"math"
	"sort"

	"nanotarget/internal/stats"
)

// columnIndex is the presorted, immutable per-N view of a Samples table.
type columnIndex struct {
	// vals[n] holds column n's non-NaN values sorted ascending; users[n]
	// holds the panel-row index contributing each sorted position.
	vals  [][]float64
	users [][]int32
	// depths[u] is row u's count of leading non-NaN cells (clamped to
	// MaxN). When prefixShaped, every row is non-NaN exactly up to its
	// depth, so a resample's per-column totals all derive from one depth
	// histogram; otherwise totals are summed per column.
	depths       []int32
	prefixShaped bool
}

// columns returns the Samples' column index, building it on first use. Safe
// for concurrent first touch (bootstrap workers race here); the build runs
// once and the result is immutable.
func (s *Samples) columns() *columnIndex {
	s.colOnce.Do(func() { s.cols = buildColumns(s.AS, s.MaxN) })
	return s.cols
}

// buildColumns constructs the presorted index: one gather + sort per column,
// paid once per Samples.
func buildColumns(as [][]float64, maxN int) *columnIndex {
	ci := &columnIndex{
		vals:         make([][]float64, maxN),
		users:        make([][]int32, maxN),
		depths:       make([]int32, len(as)),
		prefixShaped: true,
	}
	for u, row := range as {
		lim := len(row)
		if lim > maxN {
			lim = maxN
		}
		d := 0
		for d < lim && !math.IsNaN(row[d]) {
			d++
		}
		ci.depths[u] = int32(d)
		for n := d; n < lim && ci.prefixShaped; n++ {
			if !math.IsNaN(row[n]) {
				ci.prefixShaped = false
			}
		}
	}
	for n := 0; n < maxN; n++ {
		var vals []float64
		var users []int32
		for u, row := range as {
			if n < len(row) && !math.IsNaN(row[n]) {
				vals = append(vals, row[n])
				users = append(users, int32(u))
			}
		}
		sort.Sort(&columnSorter{vals: vals, users: users})
		ci.vals[n] = vals
		ci.users[n] = users
	}
	return ci
}

// columnSorter orders a column's (value, row) pairs by value ascending with
// a row-index tiebreak, so index builds are deterministic. Tie order cannot
// affect quantiles (tied values are bit-equal in this table), only the
// index's internal layout.
type columnSorter struct {
	vals  []float64
	users []int32
}

func (c *columnSorter) Len() int { return len(c.vals) }
func (c *columnSorter) Less(i, j int) bool {
	if c.vals[i] != c.vals[j] {
		return c.vals[i] < c.vals[j]
	}
	return c.users[i] < c.users[j]
}
func (c *columnSorter) Swap(i, j int) {
	c.vals[i], c.vals[j] = c.vals[j], c.vals[i]
	c.users[i], c.users[j] = c.users[j], c.users[i]
}

// resampleScratch is the pooled per-iteration state of the kernel bootstrap
// path: the reusable VAS output buffer, the FitVAS point scratch, and the
// depth-histogram/totals workspace. One Borrow/Release pair per resample;
// the warm path allocates nothing (gated by TestWarmResampleZeroAllocs).
type resampleScratch struct {
	out       []float64 // VAS output, len MaxN
	xs, ys    []float64 // FitVAS censored points, cap MaxN
	depthHist []int     // resampled-depth histogram, len MaxN+1
	totals    []int     // per-column expansion sizes, len MaxN
}

func (s *Samples) borrowResample() *resampleScratch {
	if v, ok := s.resamplePool.Get().(*resampleScratch); ok {
		return v
	}
	return &resampleScratch{
		out:       make([]float64, s.MaxN),
		xs:        make([]float64, 0, s.MaxN),
		ys:        make([]float64, 0, s.MaxN),
		depthHist: make([]int, s.MaxN+1),
		totals:    make([]int, s.MaxN),
	}
}

func (s *Samples) releaseResample(sc *resampleScratch) {
	s.resamplePool.Put(sc)
}

// tallyResample prepares the resample idx (a multiset of panel-row indices)
// for column queries: it borrows a counts vector and fills it with the row
// multiplicities and, in the same pass over idx, the depth histogram. On a
// prefix-shaped table the histogram yields every column total in O(MaxN):
// column n's expansion holds the rows resampled with depth > n. The caller
// queries columns with resampleAt and releases the box to s.countsPool.
func (s *Samples) tallyResample(idx []int, sc *resampleScratch) *[]int32 {
	cols := s.columns()
	box := s.countsPool.Borrow(len(s.AS))
	counts := *box
	hist := sc.depthHist
	clear(hist)
	for _, ui := range idx {
		counts[ui]++
		hist[cols.depths[ui]]++
	}
	if cols.prefixShaped {
		t := 0
		for n := s.MaxN - 1; n >= 0; n-- {
			t += hist[n+1]
			sc.totals[n] = t
		}
	}
	return box
}

// resampleAt is column n's q-quantile over a tallied resample: O(U), or NaN
// when no resampled row reaches column n. Off the prefix-shaped fast path
// the column total is summed here, per column.
func (s *Samples) resampleAt(counts []int32, sc *resampleScratch, n int, q float64) float64 {
	cols := s.cols
	total := 0
	if cols.prefixShaped {
		total = sc.totals[n]
	} else {
		total = stats.CountingTotal(cols.users[n], counts)
	}
	if total == 0 {
		return math.NaN()
	}
	return stats.CountingQuantileSorted(cols.vals[n], cols.users[n], counts, total, q)
}

// fitResample is FitVAS(vasIdx(q, idx)) on the column index (vasIdx is the
// naive test oracle in oracle_test.go), the statistic EstimateNP's
// bootstrap computes per resample. The censoring rule pulls columns lazily,
// so only the K columns up to the first floored (or empty) one are ever
// walked: O(K·U) instead of O(MaxN·U). Bit-identical to the
// full-vector fit, because a column the rule never reaches cannot change
// its points, its error or N_P. Zero allocations once warm.
func (s *Samples) fitResample(q float64, idx []int, sc *resampleScratch) (FitResult, error) {
	box := s.tallyResample(idx, sc)
	fit, err := fitVASInto(sc.xs, sc.ys, s.MaxN, s.FloorValue, func(n int) float64 {
		return s.resampleAt(*box, sc, n, q)
	})
	s.countsPool.Release(box)
	return fit, err
}

// vasResample is vasIdx on the column index: the full q-quantile VAS vector
// of the resample idx, written into sc.out — the differential oracle's view
// of the kernel. Byte-identical to the naive gather-copy-sort path;
// O(MaxN·U), zero allocations.
func (s *Samples) vasResample(q float64, idx []int, sc *resampleScratch) []float64 {
	box := s.tallyResample(idx, sc)
	out := sc.out[:s.MaxN]
	for n := range out {
		out[n] = s.resampleAt(*box, sc, n, q)
	}
	s.countsPool.Release(box)
	return out
}

// VAS computes the vector VAS(Q) = [AS(Q,1), ..., AS(Q,MaxN)] for quantile
// q in (0,1): the per-N q-quantile of audience size across users (§4.1).
// Index i holds AS(Q, i+1). Entries with no samples are NaN. With every
// row's multiplicity one, the per-N quantile is QuantileSorted over the
// presorted column directly — O(MaxN) after the one-time index build.
func (s *Samples) VAS(q float64) []float64 {
	cols := s.columns()
	out := make([]float64, s.MaxN)
	for n := range out {
		if len(cols.vals[n]) == 0 {
			out[n] = math.NaN()
			continue
		}
		out[n] = stats.QuantileSorted(cols.vals[n], q)
	}
	return out
}
