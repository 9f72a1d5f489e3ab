package main

import (
	"errors"
	"fmt"
	"math"
	"regexp"
	"sort"
	"time"
)

// minBeyond is the rule for a tail percentile: at least ten samples
// must lie beyond it, so p99 needs 1000 samples.
const minBeyond = 10

// errTooFewSamples reports a percentile that the sample count cannot
// support.
var errTooFewSamples = errors.New("too few samples for percentile")

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method. It refuses a tail percentile with fewer than
// ten samples beyond it (p99 under 1000 samples, p90 under 100).
func percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, fmt.Errorf("%w: p%g of 0 samples", errTooFewSamples, p)
	}
	if p > 50 {
		beyond := float64(len(xs)) * (100 - p) / 100
		if beyond < minBeyond-1e-9 {
			return 0, fmt.Errorf("%w: p%g of %d samples leaves %.1f beyond it (need %d)",
				errTooFewSamples, p, len(xs), beyond, minBeyond)
		}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1], nil
}

// tail is the highest of p99 and p90 that the samples support, else
// their maximum; it returns the value and the percentile used (100 for
// the maximum).
func tail(xs []float64) (float64, float64) {
	for _, p := range []float64{99, 90} {
		if v, err := percentile(xs, p); err == nil {
			return v, p
		}
	}
	return maxOf(xs), 100
}

// median is the middle value (mean of the two middle values for an
// even count); 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// maxOf returns the largest value (0 for none).
func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// metricName is the shape every metric name must have.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics is a run's named values.
type metrics map[string]metric

// set records one value, refusing a malformed name (a programming
// error in the benchmark, so it panics).
func (m metrics) set(name string, value float64, unit string) {
	if !metricName.MatchString(name) {
		panic(fmt.Sprintf("bench: bad metric name %q", name))
	}
	m[name] = metric{Value: value, Unit: unit}
}
