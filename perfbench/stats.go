package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile: with fewer, the percentile is one or two outliers.
const minBeyond = 10

// rank is the 1-based nearest-rank position of the q-quantile (0 < q
// <= 1) among n > 0 sorted samples.
func rank(n int, q float64) int {
	return min(max(int(math.Ceil(q*float64(n))), 1), n)
}

// quantile returns the nearest-rank q-quantile of sorted: the smallest
// sample with at least q of the samples at or below it. It returns 0
// for an empty slice.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), q)-1]
}

// beyond reports how many of n samples lie above the nearest-rank
// q-quantile's position.
func beyond(n int, q float64) int {
	if n == 0 {
		return 0
	}
	return n - rank(n, q)
}

// latencySummary is a latency distribution reduced to what the
// benchmark reports: the sample count, the median and the p99, with
// P99OK false when fewer than minBeyond samples lie beyond the p99.
type latencySummary struct {
	N     int
	P50   int64 // ns
	P99   int64 // ns
	P99OK bool
}

// summarize sorts samples in place and summarizes them.
func summarize(samples []int64) latencySummary {
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	return latencySummary{
		N:     len(samples),
		P50:   quantile(samples, 0.5),
		P99:   quantile(samples, 0.99),
		P99OK: beyond(len(samples), 0.99) >= minBeyond,
	}
}

// median returns the median of xs (the mean of the middle two for an
// even count) without reordering xs; 0 for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// ratio is a quotient kept with its base, so a report can print the
// denominator next to the value.
type ratio struct {
	Num, Den float64
}

// Value is Num/Den, or 0 when the base is empty.
func (r ratio) Value() float64 {
	if r.Den == 0 {
		return 0
	}
	return r.Num / r.Den
}

// us converts nanoseconds to microseconds.
func us(ns int64) float64 { return float64(ns) / 1e3 }
