package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a percentile before it
// is reported: a p95 from fewer than 200 samples would rest on a
// handful of values.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p < 1) of xs
// and true, or false when fewer than minBeyond samples lie above it.
// xs is not modified.
func percentile(xs []float64, p float64) (float64, bool) {
	n := len(xs)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, false
	}
	rank := nearestRank(p, n)
	if n-rank < minBeyond {
		return 0, false
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], true
}

// nearestRank is the 1-based rank of the p-th percentile among n
// samples. The epsilon keeps p·n on its integer when binary rounding
// lands just above it (0.99·1000).
func nearestRank(p float64, n int) int {
	r := int(math.Ceil(p*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	return r
}

// minSamples is the smallest sample count at which percentile reports
// the p-th percentile.
func minSamples(p float64) int {
	for n := 1; ; n++ {
		if n-nearestRank(p, n) >= minBeyond {
			return n
		}
	}
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples. Unlike percentile it
// demands no tail: it summarises repeated measurements of one quantity.
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

// bucketP50 is the median of a power-of-two histogram given as sample
// counts by bucket lower bound (bucket [low, 2·low), bucket 0 holding
// zero), interpolated linearly inside the median's bucket, with the
// sample count. Buckets with no samples are ignored.
func bucketP50(counts map[int64]int64) (float64, int64) {
	var lows []int64
	var total int64
	for low, n := range counts {
		if n > 0 {
			lows = append(lows, low)
			total += n
		}
	}
	if total == 0 {
		return 0, 0
	}
	sort.Slice(lows, func(i, j int) bool { return lows[i] < lows[j] })
	half := float64(total) / 2
	seen := 0.0
	for _, low := range lows {
		n := float64(counts[low])
		if seen+n >= half {
			width := float64(low)
			if low == 0 {
				width = 1
			}
			return float64(low) + width*(half-seen)/n, total
		}
		seen += n
	}
	return float64(lows[len(lows)-1]), total
}
