package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the nearest-rank p-quantile of xs (0 when empty).
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	i := int(math.Ceil(p*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// median of durations (0 when empty).
func median(ds []time.Duration) time.Duration {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d)
	}
	return time.Duration(quantile(xs, 0.5))
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// frac is a/b, 0 when b is 0.
func frac(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// chunkSize is how many consecutive operations one latency chunk holds:
// enough that a chunk's p99 has ten samples beyond it.
const chunkSize = 1000

// chunked returns the median over consecutive chunks of chunkSize
// latencies (xs in send order) of each chunk's p-quantile, which a burst
// of interference on the shared machine moves less than the pooled
// quantile. With fewer than three full chunks it is the pooled quantile.
func chunked(xs []float64, p float64) float64 {
	n := len(xs) / chunkSize
	if n < 3 {
		return quantile(xs, p)
	}
	qs := make([]float64, n)
	for i := range qs {
		qs[i] = quantile(xs[i*chunkSize:(i+1)*chunkSize], p)
	}
	return quantile(qs, 0.5)
}

// secondCounts buckets completion offsets into the window's whole
// seconds.
func secondCounts(done []time.Duration, window time.Duration) []float64 {
	counts := make([]float64, int(window/time.Second))
	for _, d := range done {
		if i := int(d / time.Second); i < len(counts) {
			counts[i]++
		}
	}
	return counts
}
