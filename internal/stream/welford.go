// Package stream is the bounded-memory online analysis engine: the
// production counterpart of the batch FULL-Web pipeline. It ingests
// access-log records chunk by chunk (no full-trace slice), sessionizes
// incrementally, and maintains online estimators — Welford moments, a
// deterministic quantile sketch, a dyadic aggregated-counts Hurst
// estimator and a reservoir-fed Hill tail estimator — so arbitrarily
// long logs are characterized with memory bounded by live sessions and
// fixed-size sketches, not trace length. Same input always yields
// byte-identical snapshots (DESIGN.md §10).
package stream

import "math"

// Welford maintains running moments of a stream in O(1) memory using
// Welford's update: count, mean, population variance, min and max. The
// zero value is ready to use. Results are exact (up to floating point)
// for the observation order fed, which the engine fixes, so snapshots
// are deterministic.
type Welford struct {
	n          int64
	mean, m2   float64
	minV, maxV float64
}

// Observe feeds one value.
func (w *Welford) Observe(v float64) {
	if w.n == 0 {
		w.minV, w.maxV = v, v
	} else {
		if v < w.minV {
			w.minV = v
		}
		if v > w.maxV {
			w.maxV = v
		}
	}
	w.n++
	d := v - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (v - w.mean)
}

// N returns the observation count.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 before any observation).
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the population variance (0 before two observations).
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// StdDev returns the population standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation (0 before any).
func (w *Welford) Min() float64 { return w.minV }

// Max returns the largest observation (0 before any).
func (w *Welford) Max() float64 { return w.maxV }
