package lrd

import (
	"fmt"
	"math"

	"fullweb/internal/fft"
)

// whittleGrid bounds the admissible Hurst range for the optimizer; the
// fGn spectral density degenerates at the endpoints.
const (
	whittleHMin = 0.01
	whittleHMax = 0.99
	// whittleTerms is the truncation of the infinite aliasing sum in the
	// fGn spectral density; the remainder is handled by an integral tail
	// correction.
	whittleTerms = 8
)

// fgnSpectralTail approximates the truncated remainder of the aliasing
// sum by the integral 2 * int_{terms+1/2}^inf (2*pi*x)^{-e} dx.
func fgnSpectralTail(e float64, terms int) float64 {
	return 2 * math.Pow(2*math.Pi, -e) * math.Pow(float64(terms)+0.5, 1-e) / (e - 1)
}

// whittleWorkspace precomputes, per Fourier frequency, the logarithms of
// the aliasing-sum terms so each objective evaluation costs only
// exponentials. termsPerFreq = 2*whittleTerms + 1.
type whittleWorkspace struct {
	freqs    []float64
	ords     []float64
	logTerms []float64 // len(freqs) * termsPerFreq, row-major
	log1mCos []float64 // log(1 - cos(lambda_j))
	perFreq  int
}

func newWhittleWorkspace(freqs, ords []float64) *whittleWorkspace {
	perFreq := 2*whittleTerms + 1
	ws := &whittleWorkspace{
		freqs:    freqs,
		ords:     ords,
		logTerms: make([]float64, len(freqs)*perFreq),
		log1mCos: make([]float64, len(freqs)),
		perFreq:  perFreq,
	}
	twoPi := 2 * math.Pi
	for j, lambda := range freqs {
		ws.log1mCos[j] = math.Log(1 - math.Cos(lambda))
		row := ws.logTerms[j*perFreq : (j+1)*perFreq]
		row[0] = math.Log(lambda)
		for k := 1; k <= whittleTerms; k++ {
			row[2*k-1] = math.Log(twoPi*float64(k) + lambda)
			row[2*k] = math.Log(twoPi*float64(k) - lambda)
		}
	}
	return ws
}

// logSpectrum returns log f1(lambda_j; H) using the precomputed terms.
func (ws *whittleWorkspace) logSpectrum(j int, h float64) float64 {
	e := 2*h + 1
	row := ws.logTerms[j*ws.perFreq : (j+1)*ws.perFreq]
	b := fgnSpectralTail(e, whittleTerms)
	for _, lt := range row {
		b += math.Exp(-e * lt)
	}
	return ws.log1mCos[j] + math.Log(b)
}

// objective is the profile Whittle log-likelihood (up to constants):
// log sigma2Hat(H) + mean_j log f1(lambda_j; H), where
// sigma2Hat(H) = mean_j I_j / f1(lambda_j; H).
func (ws *whittleWorkspace) objective(h float64) float64 {
	m := len(ws.freqs)
	sumRatio := 0.0
	sumLogF := 0.0
	for j := 0; j < m; j++ {
		logF := ws.logSpectrum(j, h)
		sumRatio += ws.ords[j] * math.Exp(-logF)
		sumLogF += logF
	}
	return math.Log(sumRatio/float64(m)) + sumLogF/float64(m)
}

// EstimateWhittle estimates H by approximate maximum likelihood under a
// fractional Gaussian noise spectral model (the Whittle estimator), with
// an asymptotic 95% confidence interval from the Fisher information of
// the profiled likelihood. The series should be (approximately)
// stationary; the paper applies it after trend and periodicity removal.
func EstimateWhittle(x []float64) (Estimate, error) {
	n := len(x)
	if n < 128 {
		return Estimate{}, fmt.Errorf("%w: Whittle needs >= 128 points, got %d", ErrTooShort, n)
	}
	freqs, ords, err := fft.Periodogram(x)
	if err != nil {
		return Estimate{}, fmt.Errorf("lrd: whittle: %w", err)
	}
	allZero := true
	for _, o := range ords {
		if o > 1e-300 {
			allZero = false
			break
		}
	}
	if allZero {
		return Estimate{}, ErrDegenerate
	}
	ws := newWhittleWorkspace(freqs, ords)
	// Golden-section minimization of the profile likelihood over H.
	const phi = 0.6180339887498949
	lo, hi := whittleHMin, whittleHMax
	c := hi - phi*(hi-lo)
	d := lo + phi*(hi-lo)
	fc := ws.objective(c)
	fd := ws.objective(d)
	for hi-lo > 1e-4 {
		if fc < fd {
			hi, d, fd = d, c, fc
			c = hi - phi*(hi-lo)
			fc = ws.objective(c)
		} else {
			lo, c, fc = c, d, fd
			d = lo + phi*(hi-lo)
			fd = ws.objective(d)
		}
	}
	h := (lo + hi) / 2
	se := ws.stdErr(h, n)
	return Estimate{
		Method:   Whittle,
		H:        h,
		StdErr:   se,
		CI95Low:  h - 1.96*se,
		CI95High: h + 1.96*se,
		HasCI:    true,
	}, nil
}

// stdErr computes the asymptotic standard error of the Whittle estimate
// via the Fisher information of the scale-profiled likelihood:
//
//	Var(H) = 2 / (n * D),  D = (1/4pi) Int_{-pi}^{pi} (g - gbar)^2 dlambda
//
// with g = d log f / dH evaluated numerically on the Fourier frequencies
// (Beran 1994, Theorem 5.1, adapted to the profiled scale).
func (ws *whittleWorkspace) stdErr(h float64, n int) float64 {
	const dh = 1e-4
	m := len(ws.freqs)
	g := make([]float64, m)
	sum := 0.0
	hLo := math.Max(h-dh, whittleHMin)
	hHi := math.Min(h+dh, whittleHMax)
	span := hHi - hLo
	for j := range ws.freqs {
		g[j] = (ws.logSpectrum(j, hHi) - ws.logSpectrum(j, hLo)) / span
		sum += g[j]
	}
	mean := sum / float64(m)
	ss := 0.0
	for _, v := range g {
		d := v - mean
		ss += d * d
	}
	// (1/4pi) Int (g-gbar)^2 = (1/2) * Var_lambda(g) by symmetry of f.
	dInfo := ss / float64(m) / 2
	if dInfo <= 0 {
		return math.Inf(1)
	}
	return math.Sqrt(2 / (float64(n) * dInfo))
}
