// Package fgn synthesizes long-range dependent series: exact fractional
// Gaussian noise via the Davies-Harte circulant embedding method, and the
// aggregate of heavy-tailed ON/OFF sources (Willinger et al.), the
// physical mechanism the paper cites for self-similar network traffic.
//
// These generators serve two roles in the library: ground truth for
// validating the Hurst estimators (an estimator applied to exact fGn with
// known H must recover it), and the rate-modulation engine of the
// synthetic Web workload generator.
package fgn

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"fullweb/internal/dist"
	"fullweb/internal/fft"
)

var (
	// ErrHurst is returned when the Hurst parameter is outside (0, 1).
	ErrHurst = errors.New("fgn: hurst parameter outside (0, 1)")
	// ErrLength is returned when a non-positive sample count is requested.
	ErrLength = errors.New("fgn: non-positive length")
)

// Autocovariance returns the autocovariance of unit-variance fractional
// Gaussian noise with Hurst parameter h at lag k:
//
//	gamma(k) = ( |k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H} ) / 2
func Autocovariance(h float64, k int) float64 {
	if k < 0 {
		k = -k
	}
	if k == 0 {
		return 1
	}
	fk := float64(k)
	e := 2 * h
	return 0.5 * (math.Pow(fk+1, e) - 2*math.Pow(fk, e) + math.Pow(fk-1, e))
}

// Generate returns n samples of exact zero-mean, unit-variance fractional
// Gaussian noise with Hurst parameter h, using the Davies-Harte method.
// The cost is O(n log n). h must lie in (0, 1); h = 0.5 yields white
// noise, h > 0.5 long-range dependent noise.
func Generate(rng *rand.Rand, h float64, n int) ([]float64, error) {
	if h <= 0 || h >= 1 || math.IsNaN(h) {
		return nil, fmt.Errorf("%w: %v", ErrHurst, h)
	}
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrLength, n)
	}
	if rng == nil {
		return nil, errors.New("fgn: nil random source")
	}
	// Embed the covariance in a circulant of length 2m with m >= n a power
	// of two, so the FFTs stay radix-2.
	m := fft.NextPowerOfTwo(n)
	size := 2 * m
	c := make([]complex128, size)
	for k := 0; k <= m; k++ {
		c[k] = complex(Autocovariance(h, k), 0)
	}
	for k := 1; k < m; k++ {
		c[size-k] = c[k]
	}
	eig, err := fft.Transform(c)
	if err != nil {
		return nil, fmt.Errorf("fgn: eigenvalue transform: %w", err)
	}
	// The circulant eigenvalues of an fGn covariance are non-negative for
	// all H in (0,1); clamp tiny negative rounding noise.
	g := make([]float64, size)
	for i, v := range eig {
		re := real(v)
		if re < 0 {
			if re < -1e-8 {
				return nil, fmt.Errorf("fgn: negative circulant eigenvalue %v at index %d (H=%v)", re, i, h)
			}
			re = 0
		}
		g[i] = re
	}
	// Build the randomized spectrum with the Hermitian symmetry that makes
	// the inverse transform real.
	w := make([]complex128, size)
	w[0] = complex(math.Sqrt(g[0]/float64(size))*rng.NormFloat64(), 0)
	w[m] = complex(math.Sqrt(g[m]/float64(size))*rng.NormFloat64(), 0)
	for k := 1; k < m; k++ {
		scale := math.Sqrt(g[k] / (2 * float64(size)))
		re := scale * rng.NormFloat64()
		im := scale * rng.NormFloat64()
		w[k] = complex(re, im)
		w[size-k] = complex(re, -im)
	}
	sample, err := fft.Transform(w)
	if err != nil {
		return nil, fmt.Errorf("fgn: synthesis transform: %w", err)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		out[i] = real(sample[i])
	}
	return out, nil
}

// OnOffConfig configures the aggregate ON/OFF traffic generator.
type OnOffConfig struct {
	// Sources is the number of independent ON/OFF sources to superpose.
	Sources int
	// Alpha is the Pareto shape of the ON and OFF period durations. For
	// 1 < Alpha < 2 the aggregate is asymptotically self-similar with
	// H = (3 - Alpha) / 2 (Willinger et al. 1997).
	Alpha float64
	// MinPeriod is the Pareto location (minimum period length, in bins).
	MinPeriod float64
	// Rate is the emission per ON source per bin.
	Rate float64
}

// HurstFromOnOffAlpha returns the theoretical Hurst parameter of the
// aggregate of ON/OFF sources with Pareto(alpha) period durations,
// H = (3 - alpha) / 2, valid for 1 < alpha < 2.
func HurstFromOnOffAlpha(alpha float64) (float64, error) {
	if alpha <= 1 || alpha >= 2 || math.IsNaN(alpha) {
		return 0, fmt.Errorf("fgn: ON/OFF alpha %v outside (1, 2)", alpha)
	}
	return (3 - alpha) / 2, nil
}

// GenerateOnOff returns n bins of aggregate traffic volume produced by the
// superposition of heavy-tailed ON/OFF sources. Each source alternates
// independent Pareto(Alpha, MinPeriod) ON and OFF period durations and
// contributes Rate per bin while ON. The phase of each source is
// randomized by discarding a warm-up period so the aggregate is
// approximately stationary.
func GenerateOnOff(rng *rand.Rand, cfg OnOffConfig, n int) ([]float64, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: %d", ErrLength, n)
	}
	if cfg.Sources <= 0 {
		return nil, fmt.Errorf("fgn: ON/OFF needs at least 1 source, got %d", cfg.Sources)
	}
	if cfg.Rate <= 0 || math.IsNaN(cfg.Rate) {
		return nil, fmt.Errorf("fgn: ON/OFF rate %v must be positive", cfg.Rate)
	}
	period, err := dist.NewPareto(cfg.Alpha, math.Max(cfg.MinPeriod, 1))
	if err != nil {
		return nil, fmt.Errorf("fgn: ON/OFF period distribution: %w", err)
	}
	out := make([]float64, n)
	warmup := float64(n) / 4
	for s := 0; s < cfg.Sources; s++ {
		// Random initial state and phase.
		on := rng.Intn(2) == 0
		t := -warmup * rng.Float64()
		for t < float64(n) {
			d := period.Sample(rng)
			if on {
				start := int(math.Max(math.Ceil(t), 0))
				end := int(math.Min(math.Ceil(t+d), float64(n)))
				for b := start; b < end; b++ {
					out[b] += cfg.Rate
				}
			}
			t += d
			on = !on
		}
	}
	return out, nil
}
