package main

import (
	"sort"
	"time"
)

// sample is one open-loop request: when it was due (offset from the
// phase start) and its latency from then, both in nanoseconds.
type sample struct{ at, lat int64 }

// Windowed statistics make one run's figure robust to a short stall
// (a GC cycle, a noisy neighbour) without hiding a slow phase: the
// phase is cut into equal windows, the statistic is taken in each, and
// the median over windows is reported.
const (
	minWindowSamples = 500 // each window's p99 keeps five samples beyond it
	maxWindows       = 24
	rateWindow       = 500 * time.Millisecond
)

// windowedP99 is the median over equal windows of the phase of each
// window's p99 latency, in milliseconds, and the window count. With
// fewer than 2*minWindowSamples samples it is the plain p99.
func windowedP99(xs []sample, phase time.Duration) (float64, int) {
	n := len(xs) / minWindowSamples
	n = max(1, min(n, maxWindows))
	per := make([][]float64, n)
	for _, x := range xs {
		k := int(x.at * int64(n) / int64(phase))
		k = max(0, min(k, n-1))
		per[k] = append(per[k], float64(x.lat)/1e6)
	}
	p99s := make([]float64, 0, n)
	for _, w := range per {
		if len(w) > 0 {
			p99s = append(p99s, quantile(w, 0.99))
		}
	}
	return quantile(p99s, 0.5), n
}

// windowedRate is the median over whole rateWindow windows of the
// completions per second; a phase shorter than two windows falls back
// to the overall rate.
func windowedRate(done []int64, elapsed time.Duration) float64 {
	n := int(elapsed / rateWindow)
	if n < 2 {
		return ratio(float64(len(done)), elapsed.Seconds())
	}
	counts := make([]float64, n)
	for _, at := range done {
		if k := int(at / int64(rateWindow)); k < n {
			counts[k]++
		}
	}
	return quantile(counts, 0.5) / rateWindow.Seconds()
}

// quantile is the q-quantile of xs by linear interpolation (xs is
// sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func latenciesMS(xs []sample) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(x.lat) / 1e6
	}
	return out
}

func nsQuantileMS(ns []int64, q float64) float64 {
	xs := make([]float64, len(ns))
	for i, v := range ns {
		xs[i] = float64(v) / 1e6
	}
	return quantile(xs, q)
}
