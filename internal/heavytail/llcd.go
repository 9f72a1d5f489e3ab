// Package heavytail implements the paper's heavy-tail analysis toolkit
// for intra-session characteristics: the log-log complementary
// distribution (LLCD) slope estimator, the Hill estimator with automatic
// stability detection, Downey's Monte-Carlo curvature test discriminating
// Pareto from lognormal tails, and moment classification of the fitted
// tail index.
package heavytail

import (
	"errors"
	"fmt"
	"math"

	"fullweb/internal/stats"
)

var (
	// ErrTooFewTail is returned when too few observations lie above the
	// tail cutoff to estimate anything.
	ErrTooFewTail = errors.New("heavytail: too few tail observations")
	// ErrBadParam is returned for invalid parameters.
	ErrBadParam = errors.New("heavytail: invalid parameter")
	// ErrSupport is returned when the sample contains non-positive values.
	ErrSupport = errors.New("heavytail: data must be positive")
)

// LLCDResult is the outcome of the LLCD slope estimation.
type LLCDResult struct {
	// Alpha is the estimated tail index (negated LLCD slope).
	Alpha float64
	// StdErr is the regression standard error of Alpha.
	StdErr float64
	// R2 is the coefficient of determination of the tail fit; the paper
	// reports it for every interval (Tables 2-4).
	R2 float64
	// Theta is the tail cutoff: only observations > Theta enter the fit.
	Theta float64
	// TailCount is the number of distinct LLCD points fitted.
	TailCount int
	// TailFraction is the fraction of observations above Theta.
	TailFraction float64
}

// EstimateLLCD estimates the tail index by least-squares regression on
// the log-log complementary distribution plot, using only points with
// value > theta (the region where the plot "appears linear" in the
// paper's words). The sample must be positive.
func EstimateLLCD(x []float64, theta float64) (LLCDResult, error) {
	if len(x) == 0 {
		return LLCDResult{}, stats.ErrEmpty
	}
	if theta < 0 || math.IsNaN(theta) {
		return LLCDResult{}, fmt.Errorf("%w: theta %v", ErrBadParam, theta)
	}
	for _, v := range x {
		if v <= 0 || math.IsNaN(v) {
			return LLCDResult{}, fmt.Errorf("%w: got %v", ErrSupport, v)
		}
	}
	e, err := stats.NewECDF(x)
	if err != nil {
		return LLCDResult{}, fmt.Errorf("heavytail: llcd: %w", err)
	}
	pts := e.LLCD()
	logTheta := math.Inf(-1)
	if theta > 0 {
		logTheta = math.Log10(theta)
	}
	xs := make([]float64, 0, len(pts))
	ys := make([]float64, 0, len(pts))
	for _, p := range pts {
		if p.LogX > logTheta {
			xs = append(xs, p.LogX)
			ys = append(ys, p.LogCCDF)
		}
	}
	if len(xs) < 5 {
		return LLCDResult{}, fmt.Errorf("%w: %d LLCD points above theta %v", ErrTooFewTail, len(xs), theta)
	}
	fit, err := stats.LinearRegression(xs, ys)
	if err != nil {
		return LLCDResult{}, fmt.Errorf("heavytail: llcd regression: %w", err)
	}
	tailN := 0
	for _, v := range x {
		if v > theta {
			tailN++
		}
	}
	return LLCDResult{
		Alpha:        -fit.Slope,
		StdErr:       fit.SlopeSE,
		R2:           fit.R2,
		Theta:        theta,
		TailCount:    len(xs),
		TailFraction: float64(tailN) / float64(len(x)),
	}, nil
}

// EstimateLLCDAuto estimates the tail index with an automatically chosen
// cutoff: candidate cutoffs at fixed upper-quantile fractions are tried
// and the fit with the best R^2 (among candidates retaining at least
// minTail distinct points) wins. This mechanizes the paper's visual
// selection of theta "above which the plot appears to be linear".
func EstimateLLCDAuto(x []float64) (LLCDResult, error) {
	const minTail = 10
	fractions := []float64{0.5, 0.3, 0.2, 0.1, 0.05, 0.02}
	var (
		best    LLCDResult
		haveFit bool
		lastErr error
	)
	for _, f := range fractions {
		theta, err := stats.Quantile(x, 1-f)
		if err != nil {
			return LLCDResult{}, fmt.Errorf("heavytail: llcd auto: %w", err)
		}
		res, err := EstimateLLCD(x, theta)
		if err != nil {
			lastErr = err
			continue
		}
		if res.TailCount < minTail {
			continue
		}
		if !haveFit || res.R2 > best.R2 {
			best = res
			haveFit = true
		}
	}
	if !haveFit {
		if lastErr != nil {
			return LLCDResult{}, lastErr
		}
		return LLCDResult{}, ErrTooFewTail
	}
	return best, nil
}
