// Package fft provides fast Fourier transforms used throughout the
// workload-analysis library: autocorrelation estimation, periodogram
// computation, and exact fractional Gaussian noise synthesis.
//
// Two algorithms are implemented: an iterative radix-2 Cooley-Tukey
// transform for power-of-two lengths, and Bluestein's chirp-z algorithm
// for arbitrary lengths. Transform selects between them automatically.
package fft

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"math/cmplx"
)

// ErrEmpty is returned when a transform is requested on an empty input.
var ErrEmpty = errors.New("fft: empty input")

// IsPowerOfTwo reports whether n is a positive power of two.
func IsPowerOfTwo(n int) bool {
	return n > 0 && n&(n-1) == 0
}

// NextPowerOfTwo returns the smallest power of two >= n. It returns 1 for
// n <= 1.
func NextPowerOfTwo(n int) int {
	if n <= 1 {
		return 1
	}
	return 1 << bits.Len(uint(n-1))
}

// Transform computes the forward discrete Fourier transform of x and
// returns a newly allocated slice:
//
//	X[k] = sum_{j=0}^{n-1} x[j] * exp(-2*pi*i*j*k/n)
//
// Any length is accepted; power-of-two lengths use radix-2, others use
// Bluestein's algorithm.
func Transform(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, len(x))
	copy(out, x)
	if IsPowerOfTwo(len(out)) {
		radix2(out, false)
		return out, nil
	}
	return bluestein(out, false)
}

// Inverse computes the inverse discrete Fourier transform of x, with the
// conventional 1/n normalization, and returns a newly allocated slice.
func Inverse(x []complex128) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	out := make([]complex128, len(x))
	copy(out, x)
	if IsPowerOfTwo(len(out)) {
		radix2(out, true)
	} else {
		var err error
		out, err = bluestein(out, true)
		if err != nil {
			return nil, err
		}
	}
	n := complex(float64(len(out)), 0)
	for i := range out {
		out[i] /= n
	}
	return out, nil
}

// TransformReal computes the DFT of a real-valued input. It is a
// convenience wrapper around Transform.
func TransformReal(x []float64) ([]complex128, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	c := make([]complex128, len(x))
	for i, v := range x {
		c[i] = complex(v, 0)
	}
	return Transform(c)
}

// radix2 performs an in-place iterative Cooley-Tukey FFT. len(x) must be a
// power of two. If inverse is true the conjugate transform is computed
// (without the 1/n normalization).
func radix2(x []complex128, inverse bool) {
	n := len(x)
	if n <= 1 {
		return
	}
	// Bit-reversal permutation.
	shift := 64 - uint(bits.Len(uint(n-1)))
	for i := 0; i < n; i++ {
		j := int(bits.Reverse64(uint64(i)) >> shift)
		if j > i {
			x[i], x[j] = x[j], x[i]
		}
	}
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	for size := 2; size <= n; size <<= 1 {
		half := size >> 1
		step := sign * 2 * math.Pi / float64(size)
		wStep := cmplx.Exp(complex(0, step))
		for start := 0; start < n; start += size {
			w := complex(1, 0)
			for k := 0; k < half; k++ {
				a := x[start+k]
				b := x[start+k+half] * w
				x[start+k] = a + b
				x[start+k+half] = a - b
				w *= wStep
			}
		}
	}
}

// bluestein computes the DFT of arbitrary-length input via the chirp-z
// transform, which reduces the problem to a cyclic convolution of
// power-of-two length.
func bluestein(x []complex128, inverse bool) ([]complex128, error) {
	n := len(x)
	sign := -1.0
	if inverse {
		sign = 1.0
	}
	// Chirp factors w[j] = exp(sign * i * pi * j^2 / n). The index j^2 is
	// taken mod 2n to avoid precision loss for large j.
	w := make([]complex128, n)
	for j := 0; j < n; j++ {
		jj := (int64(j) * int64(j)) % int64(2*n)
		w[j] = cmplx.Exp(complex(0, sign*math.Pi*float64(jj)/float64(n)))
	}
	m := NextPowerOfTwo(2*n - 1)
	a := make([]complex128, m)
	b := make([]complex128, m)
	for j := 0; j < n; j++ {
		a[j] = x[j] * w[j]
		b[j] = cmplx.Conj(w[j])
	}
	for j := 1; j < n; j++ {
		b[m-j] = cmplx.Conj(w[j])
	}
	radix2(a, false)
	radix2(b, false)
	for j := 0; j < m; j++ {
		a[j] *= b[j]
	}
	radix2(a, true)
	mc := complex(float64(m), 0)
	out := make([]complex128, n)
	for j := 0; j < n; j++ {
		out[j] = a[j] / mc * w[j]
	}
	return out, nil
}

// Periodogram computes the one-sided periodogram of a real series at the
// Fourier frequencies lambda_j = 2*pi*j/n for j = 1..floor(n/2):
//
//	I(lambda_j) = |sum_t x[t] exp(-i*lambda_j*t)|^2 / (2*pi*n)
//
// The zero frequency (series mean) is excluded. The returned slices hold
// the frequencies and the corresponding ordinates.
func Periodogram(x []float64) (freqs, ordinates []float64, err error) {
	n := len(x)
	if n < 2 {
		return nil, nil, fmt.Errorf("fft: periodogram needs at least 2 points, got %d", n)
	}
	spec, err := TransformReal(x)
	if err != nil {
		return nil, nil, err
	}
	half := n / 2
	freqs = make([]float64, half)
	ordinates = make([]float64, half)
	norm := 1 / (2 * math.Pi * float64(n))
	for j := 1; j <= half; j++ {
		freqs[j-1] = 2 * math.Pi * float64(j) / float64(n)
		re, im := real(spec[j]), imag(spec[j])
		ordinates[j-1] = (re*re + im*im) * norm
	}
	return freqs, ordinates, nil
}
