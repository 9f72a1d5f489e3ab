// Package stream is the bounded-memory online analysis engine: the
// production counterpart of the batch FULL-Web pipeline. It ingests
// access-log records chunk by chunk (no full-trace slice), sessionizes
// incrementally, and maintains online estimators — Welford moments, a
// mergeable deterministic quantile sketch, a dyadic aggregated-counts
// Hurst estimator and a reservoir-fed Hill tail estimator — so
// arbitrarily long logs are characterized with memory bounded by live
// sessions and fixed-size sketches, not trace length. Every estimator
// supports an associative Merge, so states built over separate streams
// combine deterministically (DESIGN.md §12). Same input always yields
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

// Merge folds another accumulator into w using Chan's parallel
// variance combination, including min/max. Merging the states of two
// disjoint streams yields the exact counts and extremes of the
// concatenated stream; mean and M2 agree with the sequential fold up
// to floating-point association (documented tolerance: 1e-9 relative,
// see DESIGN.md §12). The operation is associative and commutative up
// to that same tolerance; an empty operand on either side is exact.
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	if o.minV < w.minV {
		w.minV = o.minV
	}
	if o.maxV > w.maxV {
		w.maxV = o.maxV
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.mean += d * float64(o.n) / float64(n)
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.n = n
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
