package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPct is the highest percentile of n samples that still has
// minBeyond samples beyond it, capped at want. It is 0 when n is too
// small for any tail at all.
func tailPct(n int, want float64) float64 {
	if n <= minBeyond {
		return 0
	}
	p := 100 * (1 - float64(minBeyond)/float64(n))
	if p > want {
		p = want
	}
	return p
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// latency summarizes a latency sample by the percentile rule: the median
// and the tail percentile, with the percentile actually used and the
// sample count it rests on.
type latency struct {
	n        int
	p50      float64
	tail     float64
	tailPct  float64
	maxPct   float64 // highest percentile the sample supports, uncapped
	maxValue float64
}

// summarize applies the percentile rule to samples (any unit).
func summarize(samples []float64, want float64) latency {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	l := latency{n: len(s), p50: percentile(s, 50)}
	l.tailPct = tailPct(len(s), want)
	l.tail = percentile(s, l.tailPct)
	l.maxPct = tailPct(len(s), 100)
	l.maxValue = percentile(s, l.maxPct)
	return l
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// Latency windows: a run's samples, in time order, are cut into
// windows of at least windowSamples samples (at most maxWindows of
// them), and a reported percentile is the median over the windows of
// that percentile within each window. A burst of noise from outside the
// program that spoils one window then moves the reported value by at
// most one rank, where it would dominate a whole-run p99.
const (
	windowSamples = 100 * minBeyond // enough for a p99 with minBeyond beyond it
	maxWindows    = 20
)

// windowed summarizes time-ordered samples window by window and returns
// the medians of the windows' p50 and tail percentile, the percentile
// the tail was read at, and the window count and size.
func windowed(samples []float64, want float64) (p50, tail, pct float64, windows, size int) {
	windows = len(samples) / windowSamples
	if windows < 1 {
		windows = 1
	}
	if windows > maxWindows {
		windows = maxWindows
	}
	size = len(samples) / windows
	var p50s, tails []float64
	for w := 0; w < windows; w++ {
		l := summarize(samples[w*size:(w+1)*size], want)
		p50s = append(p50s, l.p50)
		tails = append(tails, l.tail)
		pct = l.tailPct
	}
	return median(p50s), median(tails), pct, windows, size
}
