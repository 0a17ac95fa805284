package main

import (
	"fmt"
	"math"
	"sort"
)

// minTail is how many samples must lie beyond a percentile before it is
// reported: with fewer, the "tail" is a handful of outliers and the figure
// does not repeat from run to run.
const minTail = 10

// tailLevels are the percentiles a summary considers, highest first.
var tailLevels = []float64{0.999, 0.99, 0.95, 0.9, 0.5}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of xs, which
// it sorts in place. It returns NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	rank := int(math.Ceil(p*float64(len(xs)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(xs) {
		rank = len(xs) - 1
	}
	return xs[rank]
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), sorting xs in place; NaN for an empty slice.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// supported reports whether a sample of n values has at least minTail
// values beyond its p-quantile.
func supported(n int, p float64) bool {
	return float64(n)*(1-p) >= minTail-1e-9
}

// summary is a timing distribution as the benchmark reports it: the
// median, the highest percentile the sample supports, and the count.
type summary struct {
	N        int
	P50      float64
	TailP    float64 // 0 when not even the median has minTail values beyond it
	TailVal  float64
	Max      float64
	Min      float64
	TailName string
}

// summarize builds a summary of xs (which it sorts in place).
func summarize(xs []float64) summary {
	s := summary{N: len(xs)}
	if len(xs) == 0 {
		return s
	}
	s.P50 = median(xs)
	s.Min, s.Max = xs[0], xs[len(xs)-1]
	for _, p := range tailLevels {
		if supported(len(xs), p) {
			s.TailP, s.TailVal = p, percentile(xs, p)
			s.TailName = fmt.Sprintf("p%g", p*100)
			break
		}
	}
	return s
}

// String renders the summary for the human-readable report.
func (s summary) String() string {
	if s.N == 0 {
		return "n=0"
	}
	if s.TailP == 0 {
		return fmt.Sprintf("p50=%.4g max=%.4g n=%d (no percentile has %d samples beyond it)", s.P50, s.Max, s.N, minTail)
	}
	return fmt.Sprintf("p50=%.4g %s=%.4g n=%d", s.P50, s.TailName, s.TailVal, s.N)
}
