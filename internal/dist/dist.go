// Package dist implements the probability distributions used by the
// workload models and statistical tests in this library: exponential,
// Pareto and lognormal, plus Poisson event-time generation. Each
// distribution provides random sampling from a caller-supplied source,
// and maximum likelihood fitting where the paper requires it.
//
// All samplers take a *rand.Rand so experiments are reproducible from
// fixed seeds; nothing in this package touches global randomness.
package dist

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
)

var (
	// ErrParam is returned when a distribution is constructed with invalid
	// parameters.
	ErrParam = errors.New("dist: invalid parameter")
	// ErrEmpty is returned when a fit is attempted on no data.
	ErrEmpty = errors.New("dist: empty sample")
	// ErrSupport is returned when a fit is attempted on data outside the
	// distribution's support.
	ErrSupport = errors.New("dist: observation outside support")
)

// Continuous is the interface shared by the continuous distributions in
// this package.
type Continuous interface {
	Sample(rng *rand.Rand) float64
}

// Exponential is the exponential distribution with rate Lambda > 0.
type Exponential struct {
	Lambda float64
}

var _ Continuous = Exponential{}

// NewExponential returns an exponential distribution with the given rate.
func NewExponential(lambda float64) (Exponential, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return Exponential{}, fmt.Errorf("%w: exponential rate %v", ErrParam, lambda)
	}
	return Exponential{Lambda: lambda}, nil
}

// Sample draws one variate.
func (d Exponential) Sample(rng *rand.Rand) float64 {
	return rng.ExpFloat64() / d.Lambda
}

// Pareto is the classical Pareto distribution with shape Alpha > 0 and
// scale (location) Xm > 0:
//
//	P[X <= x] = 1 - (Xm/x)^Alpha, x >= Xm.
//
// It is the canonical heavy-tailed model of the paper: for Alpha <= 2 the
// variance is infinite, for Alpha <= 1 the mean is infinite too.
type Pareto struct {
	Alpha float64
	Xm    float64
}

var _ Continuous = Pareto{}

// NewPareto returns a Pareto distribution with the given shape and scale.
func NewPareto(alpha, xm float64) (Pareto, error) {
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto shape %v", ErrParam, alpha)
	}
	if xm <= 0 || math.IsNaN(xm) || math.IsInf(xm, 0) {
		return Pareto{}, fmt.Errorf("%w: pareto scale %v", ErrParam, xm)
	}
	return Pareto{Alpha: alpha, Xm: xm}, nil
}

// Sample draws one variate by inversion.
func (d Pareto) Sample(rng *rand.Rand) float64 {
	// 1 - U is uniform on (0, 1]; avoid the U==1 pole.
	u := 1 - rng.Float64()
	return d.Xm * math.Pow(u, -1/d.Alpha)
}

// FitPareto returns the MLE Pareto distribution for the sample:
// xm = min(x), alpha = n / sum(log(x_i/xm)). All observations must be
// positive and not all equal.
func FitPareto(x []float64) (Pareto, error) {
	if len(x) == 0 {
		return Pareto{}, ErrEmpty
	}
	xm := math.Inf(1)
	for _, v := range x {
		if v <= 0 || math.IsNaN(v) {
			return Pareto{}, fmt.Errorf("%w: pareto fit needs positive data, got %v", ErrSupport, v)
		}
		if v < xm {
			xm = v
		}
	}
	sumLog := 0.0
	for _, v := range x {
		sumLog += math.Log(v / xm)
	}
	if sumLog == 0 {
		return Pareto{}, fmt.Errorf("%w: pareto fit on constant data", ErrSupport)
	}
	return NewPareto(float64(len(x))/sumLog, xm)
}

// Lognormal is the lognormal distribution: log X ~ N(Mu, Sigma^2). It is
// the paper's competing non-heavy-tailed model for intra-session
// characteristics.
type Lognormal struct {
	Mu    float64
	Sigma float64
}

var _ Continuous = Lognormal{}

// NewLognormal returns a lognormal distribution with the given log-scale
// parameters.
func NewLognormal(mu, sigma float64) (Lognormal, error) {
	if sigma <= 0 || math.IsNaN(sigma) || math.IsInf(sigma, 0) || math.IsNaN(mu) {
		return Lognormal{}, fmt.Errorf("%w: lognormal mu=%v sigma=%v", ErrParam, mu, sigma)
	}
	return Lognormal{Mu: mu, Sigma: sigma}, nil
}

// Sample draws one variate.
func (d Lognormal) Sample(rng *rand.Rand) float64 {
	return math.Exp(d.Mu + d.Sigma*rng.NormFloat64())
}

// FitLognormal returns the MLE lognormal distribution for the sample
// (sample mean and population standard deviation of the logs). All
// observations must be positive and not all equal.
func FitLognormal(x []float64) (Lognormal, error) {
	if len(x) == 0 {
		return Lognormal{}, ErrEmpty
	}
	logs := make([]float64, len(x))
	sum := 0.0
	for i, v := range x {
		if v <= 0 || math.IsNaN(v) {
			return Lognormal{}, fmt.Errorf("%w: lognormal fit needs positive data, got %v", ErrSupport, v)
		}
		logs[i] = math.Log(v)
		sum += logs[i]
	}
	mu := sum / float64(len(x))
	ss := 0.0
	for _, lv := range logs {
		d := lv - mu
		ss += d * d
	}
	sigma := math.Sqrt(ss / float64(len(x)))
	if sigma == 0 {
		return Lognormal{}, fmt.Errorf("%w: lognormal fit on constant data", ErrSupport)
	}
	return NewLognormal(mu, sigma)
}
