package lrd

import (
	"math"
	"strconv"
	"testing"
)

// fgnSpectralB returns B(lambda, H) = sum_{j in Z} |lambda + 2*pi*j|^{-2H-1},
// truncated at |j| <= terms with the integral tail correction the
// Whittle workspace applies. lambda must lie in (0, pi]. It is the
// exact spectral sum the truncation ablation compares against.
func fgnSpectralB(lambda, h float64, terms int) float64 {
	e := 2*h + 1
	sum := math.Pow(lambda, -e)
	twoPi := 2 * math.Pi
	for j := 1; j <= terms; j++ {
		sum += math.Pow(twoPi*float64(j)+lambda, -e)
		sum += math.Pow(twoPi*float64(j)-lambda, -e)
	}
	return sum + fgnSpectralTail(e, terms)
}

// fgnLogSpectrum returns log f1(lambda; H) for the normalized fGn
// spectral density f1(lambda; H) = (1 - cos lambda) * B(lambda, H). The
// overall scale is immaterial to the profile Whittle likelihood.
func fgnLogSpectrum(lambda, h float64) float64 {
	return math.Log(1-math.Cos(lambda)) + math.Log(fgnSpectralB(lambda, h, whittleTerms))
}

// TestSpectralTruncationAccuracy guards the DESIGN.md ablation choice:
// the 8-term aliasing sum with integral tail correction stays within
// 2e-4 relative error of a 400-term reference across the frequency and
// Hurst ranges the estimator visits.
func TestSpectralTruncationAccuracy(t *testing.T) {
	for _, h := range []float64{0.05, 0.3, 0.5, 0.7, 0.9, 0.99} {
		for _, lambda := range []float64{1e-4, 1e-3, 1e-2, 0.1, 0.5, 1, 2, 3, math.Pi} {
			ref := fgnSpectralB(lambda, h, 400)
			got := fgnSpectralB(lambda, h, whittleTerms)
			if rel := math.Abs(got-ref) / ref; rel > 2e-4 {
				t.Errorf("B(%v, H=%v): truncated %v vs reference %v (rel %v)", lambda, h, got, ref, rel)
			}
		}
	}
}

// TestSpectralTailCorrectionMatters documents why the tail correction is
// required: without it, a short truncation is far less accurate.
func TestSpectralTailCorrectionMatters(t *testing.T) {
	h, lambda := 0.7, 1.0
	ref := fgnSpectralB(lambda, h, 400)
	// Recompute the raw truncated sum without the tail term.
	e := 2*h + 1
	raw := math.Pow(lambda, -e)
	for j := 1; j <= whittleTerms; j++ {
		raw += math.Pow(2*math.Pi*float64(j)+lambda, -e)
		raw += math.Pow(2*math.Pi*float64(j)-lambda, -e)
	}
	withCorrection := fgnSpectralB(lambda, h, whittleTerms)
	errRaw := math.Abs(raw-ref) / ref
	errCorrected := math.Abs(withCorrection-ref) / ref
	if errCorrected*10 > errRaw {
		t.Errorf("tail correction buys < 10x accuracy: raw %v vs corrected %v", errRaw, errCorrected)
	}
}

// BenchmarkWhittleTruncationOrders is the DESIGN.md ablation: spectral
// density cost at different truncation orders.
func BenchmarkWhittleTruncationOrders(b *testing.B) {
	for _, terms := range []int{2, 8, 25, 100} {
		b.Run("terms-"+strconv.Itoa(terms), func(b *testing.B) {
			sink := 0.0
			for i := 0; i < b.N; i++ {
				sink += fgnSpectralB(0.3, 0.8, terms)
			}
			_ = sink
		})
	}
}
