package main

import (
	"math"
	"sort"
	"time"
)

// percentile returns the q-quantile (0 ≤ q ≤ 1) of samples by linear
// interpolation between the closest ranks, the rule numpy and Python's
// statistics module use for inclusive quantiles. It sorts samples in
// place. An empty sample has no percentile: NaN, which the result check
// refuses to print as a measurement.
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	sort.Float64s(samples)
	return sortedPercentile(samples, q)
}

// sortedPercentile is percentile over an already sorted, non-empty slice.
func sortedPercentile(sorted []float64, q float64) float64 {
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := lo + 1
	if hi >= len(sorted) {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[hi]-sorted[lo])
}

// latencySummary is a latency distribution reduced to what the benchmark
// reports: the median, the 99th percentile and the sample count behind
// them (a p99 needs at least 1000 samples to have ten beyond it).
type latencySummary struct {
	P50, P99 float64 // milliseconds
	N        int
}

// summarize reduces nanosecond latencies to a latencySummary; an empty
// sample summarizes to zeros with N = 0.
func summarize(ns []int64) latencySummary {
	s := latencySummary{N: len(ns)}
	if s.N == 0 {
		return s
	}
	ms := make([]float64, len(ns))
	for i, d := range ns {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	s.P50 = sortedPercentile(ms, 0.50)
	s.P99 = sortedPercentile(ms, 0.99)
	return s
}

// perOp divides a window total by the ops completed in the window; a
// window that completed nothing reports NaN, which the result check
// refuses rather than printing a division by zero as a measurement.
func perOp(total float64, ops int64) float64 {
	if ops <= 0 {
		return math.NaN()
	}
	return total / float64(ops)
}

// errorRate is the failure rate the benchmark reports: the rule-of-three
// upper 95% bound (failed+3)/attempted on the per-op failure probability.
// A run without failures thus reports the smallest rate its sample can
// vouch for instead of 0, and every failure raises it by 1/attempted, so
// a regression that starts failing ops moves the figure by far more than
// run-to-run noise. attempted counts every op that ended, failed or not.
func errorRate(failed, attempted int64) float64 {
	if attempted <= 0 {
		return math.NaN()
	}
	return float64(failed+3) / float64(attempted)
}

// median returns the median of xs (sorting a copy).
func median(xs []float64) float64 {
	return percentile(append([]float64(nil), xs...), 0.5)
}

// meanDur is total/count in the given unit, NaN-free: an empty sum reads 0.
func meanDur(total time.Duration, count int64, unit time.Duration) float64 {
	if count <= 0 {
		return 0
	}
	return float64(total) / float64(count) / float64(unit)
}

// ratio is a/b with an empty denominator reading 0: the per-layer counts
// are reported as measured, and a layer that did no work did 0 of it.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
