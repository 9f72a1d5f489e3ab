package lrd

import (
	"fmt"
	"math"

	"fullweb/internal/stats"
	"fullweb/internal/wavelet"
)

// AbryVeitchConfig configures the wavelet estimator.
type AbryVeitchConfig struct {
	// Filter is the analyzing wavelet; Daubechies4 (two vanishing
	// moments) is the Abry-Veitch default and makes the estimator blind
	// to linear trends.
	Filter wavelet.Filter
	// J1 is the finest octave included in the regression. Octave 1 mixes
	// in short-range dependence; the customary default is 2 or 3.
	J1 int
	// MinCoeffs is the minimum number of detail coefficients an octave
	// needs to be included (sets the coarsest octave J2 implicitly).
	MinCoeffs int
}

// DefaultAbryVeitchConfig returns the standard configuration:
// Daubechies-4, regression from octave 2 up to the last octave with at
// least 8 coefficients.
func DefaultAbryVeitchConfig() AbryVeitchConfig {
	return AbryVeitchConfig{Filter: wavelet.Daubechies4, J1: 2, MinCoeffs: 8}
}

// EstimateAbryVeitch estimates H with the Abry-Veitch wavelet method
// using the default configuration.
func EstimateAbryVeitch(x []float64) (Estimate, error) {
	return EstimateAbryVeitchConfig(x, DefaultAbryVeitchConfig())
}

// EstimateAbryVeitchConfig estimates H with the Abry-Veitch wavelet
// method: a weighted least-squares fit of the bias-corrected logscale
// diagram y_j = log2(mu_j) - g(n_j) against octave j, whose slope is
// 2H - 1. The weights and the bias correction g(n) follow Abry & Veitch
// (1998): under Gaussianity, n_j * mu_j / E[mu_j] is chi-squared with
// n_j degrees of freedom, so
//
//	E[log2 mu_j] = log2 E[mu_j] + (psi(n_j/2)/ln 2 - log2(n_j/2))
//	Var[log2 mu_j] ~ 2 / (n_j ln^2 2)
//
// The 95% confidence interval comes from the weighted-regression slope
// variance.
func EstimateAbryVeitchConfig(x []float64, cfg AbryVeitchConfig) (Estimate, error) {
	if cfg.J1 < 1 {
		return Estimate{}, fmt.Errorf("%w: J1 = %d", ErrBadParam, cfg.J1)
	}
	if cfg.MinCoeffs < 2 {
		return Estimate{}, fmt.Errorf("%w: MinCoeffs = %d", ErrBadParam, cfg.MinCoeffs)
	}
	if len(x) < 128 {
		return Estimate{}, fmt.Errorf("%w: Abry-Veitch needs >= 128 points, got %d", ErrTooShort, len(x))
	}
	dec, err := wavelet.Transform(x, cfg.Filter, 30)
	if err != nil {
		return Estimate{}, fmt.Errorf("lrd: abry-veitch transform: %w", err)
	}
	lsd, err := dec.LogscaleDiagram()
	if err != nil {
		return Estimate{}, fmt.Errorf("lrd: abry-veitch logscale diagram: %w", err)
	}
	// Energies at or below the rounding floor of the input scale are
	// numerically zero (constant or near-constant input), not data.
	meanSq := 0.0
	for _, v := range x {
		meanSq += v * v
	}
	meanSq /= float64(len(x))
	energyFloor := meanSq * 1e-20
	js := make([]float64, 0, len(lsd))
	ys := make([]float64, 0, len(lsd))
	ws := make([]float64, 0, len(lsd))
	ln2 := math.Ln2
	for _, oe := range lsd {
		if oe.Octave < cfg.J1 || oe.Count < cfg.MinCoeffs {
			continue
		}
		if oe.Energy <= energyFloor {
			continue
		}
		nj := float64(oe.Count)
		psi, err := digamma(nj / 2)
		if err != nil {
			return Estimate{}, fmt.Errorf("lrd: abry-veitch bias correction: %w", err)
		}
		bias := psi/ln2 - math.Log2(nj/2)
		ys = append(ys, math.Log2(oe.Energy)-bias)
		js = append(js, float64(oe.Octave))
		ws = append(ws, nj*ln2*ln2/2) // 1 / Var[log2 mu_j]
	}
	if len(js) < 3 {
		return Estimate{}, fmt.Errorf("%w: only %d usable octaves (need >= 3)", ErrTooShort, len(js))
	}
	fit, err := stats.WeightedLinearRegression(js, ys, ws)
	if err != nil {
		return Estimate{}, fmt.Errorf("lrd: abry-veitch regression: %w", err)
	}
	h := (fit.Slope + 1) / 2
	se := fit.SlopeSE / 2
	return Estimate{
		Method:   AbryVeitch,
		H:        h,
		StdErr:   se,
		CI95Low:  h - 1.96*se,
		CI95High: h + 1.96*se,
		HasCI:    true,
		R2:       fit.R2,
	}, nil
}

// digamma returns the logarithmic derivative of the Gamma function,
// psi(x) = d/dx ln Gamma(x), for x > 0. It uses the recurrence
// psi(x) = psi(x+1) - 1/x to shift the argument above 6 and then the
// asymptotic expansion.
func digamma(x float64) (float64, error) {
	if x <= 0 || math.IsNaN(x) {
		return 0, fmt.Errorf("%w: digamma(%v)", ErrBadParam, x)
	}
	result := 0.0
	for x < 6 {
		result -= 1 / x
		x++
	}
	// Asymptotic series: ln x - 1/(2x) - sum B_{2n}/(2n x^{2n}).
	inv := 1 / x
	inv2 := inv * inv
	result += math.Log(x) - 0.5*inv
	result -= inv2 * (1.0/12 - inv2*(1.0/120-inv2*(1.0/252-inv2*(1.0/240-inv2*1.0/132))))
	return result, nil
}
