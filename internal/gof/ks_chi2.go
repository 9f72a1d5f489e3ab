package gof

import (
	"fmt"
	"math"
	"sort"

	"fullweb/internal/spec"
)

// The paper justifies Anderson-Darling by noting it is "generally much
// more powerful than either of better known Kolmogorov-Smirnov or chi^2
// tests". Both alternatives are implemented here so that claim can be
// checked empirically (see the power-comparison test and benchmark).

// KSResult is the outcome of a Kolmogorov-Smirnov exponentiality test.
type KSResult struct {
	// D is the KS statistic sup |F_n(x) - F(x)| with F the exponential
	// CDF at the estimated rate.
	D float64
	// Modified is Stephens' finite-sample adjustment for the
	// estimated-rate case: (D - 0.2/n) * (sqrt(n) + 0.26 + 0.5/sqrt(n)).
	Modified float64
	N        int
	// RateEstimate is the MLE rate used for the null CDF.
	RateEstimate float64
	// Reject reports rejection at the 5% level (Modified > 1.094,
	// Stephens 1974, exponential with estimated scale).
	Reject bool
}

// KSCriticalValue is the 5% critical value for the modified KS statistic
// with estimated exponential scale (Stephens 1974).
const KSCriticalValue = 1.094

// KolmogorovSmirnovExponential tests whether x is exponential with
// unknown rate. All observations must be non-negative; at least 5 are
// required.
func KolmogorovSmirnovExponential(x []float64) (KSResult, error) {
	n := len(x)
	if n < 5 {
		return KSResult{}, fmt.Errorf("%w: KS needs >= 5 observations, got %d", ErrTooFew, n)
	}
	sum := 0.0
	for _, v := range x {
		if v < 0 || math.IsNaN(v) {
			return KSResult{}, fmt.Errorf("%w: %v", ErrSupport, v)
		}
		sum += v
	}
	if sum == 0 {
		return KSResult{}, fmt.Errorf("%w: all observations zero", ErrSupport)
	}
	lambda := float64(n) / sum
	sorted := make([]float64, n)
	copy(sorted, x)
	sort.Float64s(sorted)
	d := 0.0
	for i, v := range sorted {
		f := -math.Expm1(-lambda * v)
		upper := float64(i+1)/float64(n) - f
		lower := f - float64(i)/float64(n)
		if upper > d {
			d = upper
		}
		if lower > d {
			d = lower
		}
	}
	sq := math.Sqrt(float64(n))
	modified := (d - 0.2/float64(n)) * (sq + 0.26 + 0.5/sq)
	return KSResult{
		D:            d,
		Modified:     modified,
		N:            n,
		RateEstimate: lambda,
		Reject:       modified > KSCriticalValue,
	}, nil
}

// Chi2Result is the outcome of a chi-square exponentiality test.
type Chi2Result struct {
	// Statistic is the Pearson chi-square over equiprobable bins.
	Statistic float64
	// Bins is the number of bins used; DegreesOfFreedom = Bins - 2
	// (one for the bin constraint, one for the estimated rate).
	Bins             int
	DegreesOfFreedom int
	// PValue is the upper-tail probability of the statistic under the
	// chi-square distribution.
	PValue float64
	N      int
	// Reject reports rejection at the 5% level.
	Reject bool
}

// ChiSquareExponential tests whether x is exponential with unknown rate
// using Pearson's chi-square over equiprobable bins (the textbook rule
// of ~n/5 observations per bin, capped at 50 bins).
func ChiSquareExponential(x []float64) (Chi2Result, error) {
	n := len(x)
	if n < 25 {
		return Chi2Result{}, fmt.Errorf("%w: chi-square needs >= 25 observations, got %d", ErrTooFew, n)
	}
	sum := 0.0
	for _, v := range x {
		if v < 0 || math.IsNaN(v) {
			return Chi2Result{}, fmt.Errorf("%w: %v", ErrSupport, v)
		}
		sum += v
	}
	if sum == 0 {
		return Chi2Result{}, fmt.Errorf("%w: all observations zero", ErrSupport)
	}
	lambda := float64(n) / sum
	bins := n / 5
	if bins > 50 {
		bins = 50
	}
	if bins < 4 {
		bins = 4
	}
	// Equiprobable bin edges under the fitted exponential.
	counts := make([]int, bins)
	for _, v := range x {
		f := -math.Expm1(-lambda * v)
		idx := int(f * float64(bins))
		if idx >= bins {
			idx = bins - 1
		}
		counts[idx]++
	}
	expected := float64(n) / float64(bins)
	statistic := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		statistic += d * d / expected
	}
	dof := bins - 2
	p, err := chiSquareUpperTail(statistic, float64(dof))
	if err != nil {
		return Chi2Result{}, fmt.Errorf("gof: chi-square p-value: %w", err)
	}
	return Chi2Result{
		Statistic:        statistic,
		Bins:             bins,
		DegreesOfFreedom: dof,
		PValue:           p,
		N:                n,
		Reject:           p < 0.05,
	}, nil
}

// chiSquareUpperTail returns P[X >= x] for X ~ chi-square with dof
// degrees of freedom.
func chiSquareUpperTail(x, dof float64) (float64, error) {
	if x <= 0 {
		return 1, nil
	}
	return spec.GammaQ(dof/2, x/2)
}
