package fft

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

const tol = 1e-9

func almostEqual(a, b complex128, eps float64) bool {
	return cmplx.Abs(a-b) <= eps
}

// naiveDFT is the O(n^2) reference transform used to validate the fast
// implementations.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for j := 0; j < n; j++ {
			angle := -2 * math.Pi * float64(j) * float64(k) / float64(n)
			sum += x[j] * cmplx.Exp(complex(0, angle))
		}
		out[k] = sum
	}
	return out
}

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func TestTransformEmpty(t *testing.T) {
	if _, err := Transform(nil); err != ErrEmpty {
		t.Fatalf("Transform(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := Inverse(nil); err != ErrEmpty {
		t.Fatalf("Inverse(nil) error = %v, want ErrEmpty", err)
	}
	if _, err := TransformReal(nil); err != ErrEmpty {
		t.Fatalf("TransformReal(nil) error = %v, want ErrEmpty", err)
	}
}

func TestTransformSingle(t *testing.T) {
	out, err := Transform([]complex128{3 + 4i})
	if err != nil {
		t.Fatalf("Transform single: %v", err)
	}
	if !almostEqual(out[0], 3+4i, tol) {
		t.Fatalf("Transform([3+4i]) = %v, want 3+4i", out[0])
	}
}

func TestTransformMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 3, 4, 5, 7, 8, 12, 16, 25, 31, 32, 100, 128} {
		x := randomComplex(rng, n)
		want := naiveDFT(x)
		got, err := Transform(x)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		for k := range want {
			if !almostEqual(got[k], want[k], 1e-8*float64(n)) {
				t.Fatalf("n=%d k=%d: got %v want %v", n, k, got[k], want[k])
			}
		}
	}
}

func TestTransformDoesNotMutateInput(t *testing.T) {
	x := []complex128{1, 2, 3, 4, 5} // non-power-of-two
	orig := append([]complex128(nil), x...)
	if _, err := Transform(x); err != nil {
		t.Fatal(err)
	}
	for i := range x {
		if x[i] != orig[i] {
			t.Fatalf("Transform mutated input at %d: %v != %v", i, x[i], orig[i])
		}
	}
}

func TestInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 3, 8, 15, 64, 100, 255, 256} {
		x := randomComplex(rng, n)
		fwd, err := Transform(x)
		if err != nil {
			t.Fatalf("n=%d forward: %v", n, err)
		}
		back, err := Inverse(fwd)
		if err != nil {
			t.Fatalf("n=%d inverse: %v", n, err)
		}
		for i := range x {
			if !almostEqual(back[i], x[i], 1e-8*float64(n)) {
				t.Fatalf("n=%d i=%d: round trip %v, want %v", n, i, back[i], x[i])
			}
		}
	}
}

func TestTransformImpulse(t *testing.T) {
	// DFT of a unit impulse is all ones.
	x := make([]complex128, 8)
	x[0] = 1
	out, err := Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range out {
		if !almostEqual(v, 1, tol) {
			t.Fatalf("impulse DFT[%d] = %v, want 1", k, v)
		}
	}
}

func TestTransformConstant(t *testing.T) {
	// DFT of a constant is n at frequency zero and 0 elsewhere.
	n := 16
	x := make([]complex128, n)
	for i := range x {
		x[i] = 2
	}
	out, err := Transform(x)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(out[0], complex(float64(2*n), 0), tol) {
		t.Fatalf("constant DFT[0] = %v, want %d", out[0], 2*n)
	}
	for k := 1; k < n; k++ {
		if !almostEqual(out[k], 0, 1e-10*float64(n)) {
			t.Fatalf("constant DFT[%d] = %v, want 0", k, out[k])
		}
	}
}

func TestTransformLinearityProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(60)
		x := randomComplex(r, n)
		y := randomComplex(r, n)
		a := complex(rng.NormFloat64(), rng.NormFloat64())
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = a*x[i] + y[i]
		}
		fx, err1 := Transform(x)
		fy, err2 := Transform(y)
		fs, err3 := Transform(sum)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		for i := range fs {
			if !almostEqual(fs[i], a*fx[i]+fy[i], 1e-7*float64(n)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestParsevalProperty(t *testing.T) {
	// sum |x|^2 == (1/n) sum |X|^2 for any input.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(100)
		x := randomComplex(r, n)
		X, err := Transform(x)
		if err != nil {
			return false
		}
		var timeE, freqE float64
		for i := range x {
			timeE += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			freqE += real(X[i])*real(X[i]) + imag(X[i])*imag(X[i])
		}
		freqE /= float64(n)
		return math.Abs(timeE-freqE) <= 1e-7*(1+timeE)*float64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestIsPowerOfTwo(t *testing.T) {
	cases := map[int]bool{
		-4: false, 0: false, 1: true, 2: true, 3: false,
		4: true, 6: false, 1024: true, 1023: false,
	}
	for n, want := range cases {
		if got := IsPowerOfTwo(n); got != want {
			t.Errorf("IsPowerOfTwo(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestNextPowerOfTwo(t *testing.T) {
	cases := map[int]int{
		-1: 1, 0: 1, 1: 1, 2: 2, 3: 4, 4: 4, 5: 8,
		100: 128, 128: 128, 129: 256,
	}
	for n, want := range cases {
		if got := NextPowerOfTwo(n); got != want {
			t.Errorf("NextPowerOfTwo(%d) = %d, want %d", n, got, want)
		}
	}
}

func TestPeriodogramSinusoid(t *testing.T) {
	// A pure sinusoid at Fourier frequency j0 concentrates all periodogram
	// mass at that frequency.
	n := 256
	j0 := 16
	x := make([]float64, n)
	for t0 := range x {
		x[t0] = math.Cos(2 * math.Pi * float64(j0) * float64(t0) / float64(n))
	}
	freqs, ords, err := Periodogram(x)
	if err != nil {
		t.Fatal(err)
	}
	if len(freqs) != n/2 || len(ords) != n/2 {
		t.Fatalf("Periodogram lengths = %d, %d; want %d", len(freqs), len(ords), n/2)
	}
	peak := 0
	for j := range ords {
		if ords[j] > ords[peak] {
			peak = j
		}
	}
	if peak != j0-1 {
		t.Fatalf("periodogram peak at index %d (freq %v), want %d", peak, freqs[peak], j0-1)
	}
	// All other ordinates should be essentially zero.
	for j := range ords {
		if j != peak && ords[j] > 1e-10*ords[peak] {
			t.Fatalf("leakage at index %d: %v", j, ords[j])
		}
	}
}

func TestPeriodogramTooShort(t *testing.T) {
	if _, _, err := Periodogram([]float64{1}); err == nil {
		t.Fatal("Periodogram on 1 point should fail")
	}
}

func BenchmarkTransformPow2(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	x := randomComplex(rng, 1<<16)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transform(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTransformBluestein(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	x := randomComplex(rng, 60000) // not a power of two
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Transform(x); err != nil {
			b.Fatal(err)
		}
	}
}
