// Package wavelet implements the discrete wavelet transform machinery
// behind the Abry-Veitch Hurst estimator: a periodic pyramid DWT with
// Haar and Daubechies-4 filters, and the logscale diagram (per-octave
// detail energies) on which the estimator regresses.
package wavelet

import (
	"errors"
	"fmt"
	"math"
)

var (
	// ErrTooShort is returned when the input is too short for even one
	// decomposition level.
	ErrTooShort = errors.New("wavelet: series too short")
	// ErrFilter is returned for an unknown filter name.
	ErrFilter = errors.New("wavelet: unknown filter")
)

// Filter identifies a wavelet filter pair.
type Filter int

const (
	// Haar is the 2-tap Haar filter.
	Haar Filter = iota + 1
	// Daubechies4 is the 4-tap Daubechies filter with two vanishing
	// moments, the default of the Abry-Veitch estimator.
	Daubechies4
)

// coefficients returns the low-pass filter taps; the high-pass taps are
// derived by the quadrature mirror relation.
func (f Filter) coefficients() ([]float64, error) {
	switch f {
	case Haar:
		c := 1 / math.Sqrt2
		return []float64{c, c}, nil
	case Daubechies4:
		s3 := math.Sqrt(3)
		d := 4 * math.Sqrt2
		return []float64{(1 + s3) / d, (3 + s3) / d, (3 - s3) / d, (1 - s3) / d}, nil
	default:
		return nil, fmt.Errorf("%w: %d", ErrFilter, int(f))
	}
}

// Decomposition holds the detail coefficients of a pyramid DWT.
// Details[j] holds the level-(j+1) detail coefficients (octave j+1);
// higher octaves correspond to coarser scales.
type Decomposition struct {
	Filter  Filter
	Details [][]float64
	// Approx holds the final approximation (scaling) coefficients.
	Approx []float64
}

// Transform computes a periodic pyramid DWT of x down to maxLevels
// octaves (or as many as the length allows, each level requiring at least
// as many samples as filter taps). x is not modified.
func Transform(x []float64, f Filter, maxLevels int) (*Decomposition, error) {
	taps, err := f.coefficients()
	if err != nil {
		return nil, err
	}
	if len(x) < 2*len(taps) {
		return nil, fmt.Errorf("%w: %d samples with %d-tap filter", ErrTooShort, len(x), len(taps))
	}
	if maxLevels <= 0 {
		return nil, fmt.Errorf("wavelet: non-positive level count %d", maxLevels)
	}
	// High-pass by quadrature mirror: g[k] = (-1)^k h[L-1-k].
	low := taps
	high := make([]float64, len(taps))
	for k := range taps {
		sign := 1.0
		if k%2 == 1 {
			sign = -1
		}
		high[k] = sign * taps[len(taps)-1-k]
	}
	current := make([]float64, len(x))
	copy(current, x)
	dec := &Decomposition{Filter: f}
	for level := 0; level < maxLevels && len(current) >= 2*len(taps); level++ {
		half := len(current) / 2
		approx := make([]float64, half)
		detail := make([]float64, half)
		n := len(current)
		for i := 0; i < half; i++ {
			var a, d float64
			base := 2 * i
			for k := 0; k < len(taps); k++ {
				v := current[(base+k)%n]
				a += low[k] * v
				d += high[k] * v
			}
			approx[i] = a
			detail[i] = d
		}
		dec.Details = append(dec.Details, detail)
		current = approx
	}
	if len(dec.Details) == 0 {
		return nil, fmt.Errorf("%w: no octave computed from %d samples", ErrTooShort, len(x))
	}
	dec.Approx = current
	return dec, nil
}

// OctaveEnergy is one point of a logscale diagram: the mean squared
// detail coefficient at one octave.
type OctaveEnergy struct {
	Octave int     // scale index j, starting at 1 (finest)
	Energy float64 // mu_j = mean of squared detail coefficients
	Count  int     // n_j = number of detail coefficients at this octave
}

// LogscaleDiagram computes the per-octave mean energies mu_j of the
// decomposition. For long-range dependent input, log2(mu_j) grows
// linearly in j with slope 2H - 1.
func (d *Decomposition) LogscaleDiagram() ([]OctaveEnergy, error) {
	if d == nil || len(d.Details) == 0 {
		return nil, errors.New("wavelet: empty decomposition")
	}
	out := make([]OctaveEnergy, 0, len(d.Details))
	for j, coeffs := range d.Details {
		if len(coeffs) == 0 {
			continue
		}
		sum := 0.0
		for _, c := range coeffs {
			sum += c * c
		}
		out = append(out, OctaveEnergy{
			Octave: j + 1,
			Energy: sum / float64(len(coeffs)),
			Count:  len(coeffs),
		})
	}
	return out, nil
}
