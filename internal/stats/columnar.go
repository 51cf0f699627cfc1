package stats

// Columnar (counting) quantiles: the sort-free primitive under the §4.2
// bootstrap kernel.
//
// The estimator's hot loop computes, for every bootstrap resample and every
// combination size N, one quantile of a multiset of panel values. The naive
// path materializes the multiset (gather, copy) and sorts it — O(U log U)
// per column per resample, ~50 allocations per iteration. But a bootstrap
// resample is a MULTISET over a fixed base sample: the same ≤U distinct
// values every iteration, only their multiplicities change. Presort the base
// values ONCE, and the q-quantile of any resample is an order-statistic walk:
// accumulate multiplicities along the presorted values until the target rank
// is reached. O(U) per column, zero allocations, and — because the multiset
// quantile of a with-replacement resample equals the quantile of its sorted
// expansion — bit-identical to sorting: the walk locates exactly the values
// sort.Float64s would have placed at the lo/hi order statistics, and the
// interpolation arithmetic applied to them is QuantileSorted's own.
//
// The walk's inner loop is one gather (counts[keys[i]]) and one compare
// (has the running count passed the target rank?). A resample draws about
// 37% of rows zero times; those positions add nothing and fall through the
// compare, so the loop carries no data-dependent branch to mispredict. The
// estimator calls the walk only for the columns its censored fit reads
// (internal/core/columns.go), so a resample costs O(K·U) for K such columns.
//
// The primitives here are deliberately representation-light (presorted
// values + parallel key slice + caller-owned counts) so other per-panel-user
// aggregations (fdvt risk scans, report figure code) can adopt the same
// presorted columns without importing the estimator.

import "math"

// CountingTotal returns the expansion size of a counting column: the sum of
// counts[k] over the column's keys. It is the `total` argument
// CountingQuantileSorted needs when the caller has not tracked it
// incrementally.
func CountingTotal(keys []int32, counts []int32) int {
	total := 0
	for _, k := range keys {
		total += int(counts[k])
	}
	return total
}

// CountingQuantileSorted returns the q-th quantile (Hyndman–Fan type 7, like
// Quantile/QuantileSorted) of the multiset in which vals[i] — presorted
// ascending — occurs counts[keys[i]] times. total must be the expansion size
// (Σ counts[keys[i]]; see CountingTotal). It is the sort-free equivalent of
//
//	expand the multiset; sort.Float64s; QuantileSorted(sorted, q)
//
// and is bit-identical to it: the walk selects the same lo/hi order
// statistics the sorted expansion holds and applies the same interpolation
// expression. It panics if q is outside [0,1] (matching QuantileSorted) and
// returns NaN when total <= 0 (an empty resample column).
//
// The hot loop is one gather and one compare per position: it accumulates
// multiplicities and stops at the first position whose running count passes
// the target rank. Zero-count positions add nothing and fall through that
// same compare — in a bootstrap resample about 37% of rows are drawn zero
// times, so a per-position "skip empty" branch would be mispredicted
// constantly. Only after the stop does the walk step over empty positions,
// to reach the other order statistic when it lies in the next non-empty one.
func CountingQuantileSorted(vals []float64, keys []int32, counts []int32, total int, q float64) float64 {
	if q < 0 || q > 1 {
		panic("stats: quantile probability out of [0,1]")
	}
	if total <= 0 {
		return math.NaN()
	}
	h := q * float64(total-1)
	lo := int(math.Floor(h))
	hi := lo + 1
	if hi >= total {
		// QuantileSorted returns sorted[n-1] (and sorted[0] when n==1):
		// the largest present value.
		for i := len(keys) - 1; i >= 0; i-- {
			if counts[keys[i]] > 0 {
				return vals[i]
			}
		}
		return math.NaN() // unreachable when total matches counts
	}
	// vlo/vhi are the expansion's values at (0-based) ranks lo and hi. The
	// walk enters from whichever end is nearer the target rank — a q=0.9
	// column visits ~10% of its positions top-down instead of ~90%
	// bottom-up — selecting the same order statistics either way (direction
	// changes traversal, never the selected values or the interpolation
	// arithmetic).
	frac := h - float64(lo)
	if 2*hi >= total {
		// Top-down: above counts the copies at positions >= i, so vals[i]
		// holds rank hi at the first i where above > total-1-hi.
		target := total - 1 - hi
		above, i := 0, len(keys)-1
		for ; i >= 0; i-- {
			above += int(counts[keys[i]])
			if above > target {
				break
			}
		}
		if i < 0 {
			return math.NaN() // unreachable when total matches counts
		}
		vhi := vals[i]
		if above == target+1 {
			// Rank hi is vals[i]'s lowest copy: rank lo is the next
			// non-empty position below.
			for i--; i >= 0 && counts[keys[i]] == 0; i-- {
			}
			if i < 0 {
				return math.NaN() // unreachable when total matches counts
			}
		}
		return vals[i]*(1-frac) + vhi*frac
	}
	// Bottom-up: cum counts the copies at positions <= i, so vals[i] holds
	// rank lo at the first i where cum > lo.
	cum, i := 0, 0
	for ; i < len(keys); i++ {
		cum += int(counts[keys[i]])
		if cum > lo {
			break
		}
	}
	if i == len(keys) {
		return math.NaN() // unreachable when total matches counts
	}
	vlo := vals[i]
	if cum == hi {
		// Rank lo is vals[i]'s highest copy: rank hi is the next non-empty
		// position above.
		for i++; i < len(keys) && counts[keys[i]] == 0; i++ {
		}
		if i == len(keys) {
			return math.NaN() // unreachable when total matches counts
		}
	}
	return vlo*(1-frac) + vals[i]*frac
}
