package gof

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/dist"
)

func expSample(t testing.TB, rate float64, n int, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() / rate
	}
	return x
}

func TestKSAcceptsExponential(t *testing.T) {
	rejections := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		x := expSample(t, 2, 400, int64(r+1))
		res, err := KolmogorovSmirnovExponential(x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	if rejections > 8 {
		t.Fatalf("KS rejected exponential data %d/%d times", rejections, reps)
	}
}

func TestKSRejectsUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, 400)
	for i := range x {
		x[i] = 1 + rng.Float64()
	}
	res, err := KolmogorovSmirnovExponential(x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Fatalf("KS accepted uniform data: modified %v", res.Modified)
	}
}

func TestKSErrors(t *testing.T) {
	if _, err := KolmogorovSmirnovExponential([]float64{1, 2}); !errors.Is(err, ErrTooFew) {
		t.Error("tiny sample should return ErrTooFew")
	}
	if _, err := KolmogorovSmirnovExponential([]float64{1, -2, 3, 4, 5}); !errors.Is(err, ErrSupport) {
		t.Error("negative data should return ErrSupport")
	}
	if _, err := KolmogorovSmirnovExponential(make([]float64, 10)); !errors.Is(err, ErrSupport) {
		t.Error("all-zero data should return ErrSupport")
	}
}

func TestChi2AcceptsExponential(t *testing.T) {
	rejections := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		x := expSample(t, 0.5, 500, int64(r+100))
		res, err := ChiSquareExponential(x)
		if err != nil {
			t.Fatal(err)
		}
		if res.Reject {
			rejections++
		}
	}
	if rejections > 8 {
		t.Fatalf("chi-square rejected exponential data %d/%d times", rejections, reps)
	}
}

func TestChi2RejectsPareto(t *testing.T) {
	par, _ := dist.NewPareto(1.5, 1)
	rng := rand.New(rand.NewSource(3))
	x := make([]float64, 500)
	for i := range x {
		x[i] = par.Sample(rng)
	}
	res, err := ChiSquareExponential(x)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reject {
		t.Fatalf("chi-square accepted Pareto data: p = %v", res.PValue)
	}
}

func TestChi2Errors(t *testing.T) {
	if _, err := ChiSquareExponential(make([]float64, 10)); !errors.Is(err, ErrTooFew) {
		t.Error("small sample should return ErrTooFew")
	}
	bad := expSample(t, 1, 30, 4)
	bad[7] = -1
	if _, err := ChiSquareExponential(bad); !errors.Is(err, ErrSupport) {
		t.Error("negative data should return ErrSupport")
	}
}

// TestPowerComparisonADBeatsKSAndChi2 verifies the paper's stated reason
// for choosing Anderson-Darling: against a deviation concentrated in the
// tail (lognormal with matching mean), AD rejects at least as often as
// KS and chi-square.
func TestPowerComparisonADBeatsKSAndChi2(t *testing.T) {
	lgn, err := dist.NewLognormal(0, 1)
	if err != nil {
		t.Fatal(err)
	}
	const (
		reps = 60
		n    = 150
	)
	adRej, ksRej, chiRej := 0, 0, 0
	for r := 0; r < reps; r++ {
		rng := rand.New(rand.NewSource(int64(r + 500)))
		x := make([]float64, n)
		for i := range x {
			x[i] = lgn.Sample(rng)
		}
		ad, err := AndersonDarlingExponential(x)
		if err != nil {
			t.Fatal(err)
		}
		if ad.Reject {
			adRej++
		}
		ks, err := KolmogorovSmirnovExponential(x)
		if err != nil {
			t.Fatal(err)
		}
		if ks.Reject {
			ksRej++
		}
		chi, err := ChiSquareExponential(x)
		if err != nil {
			t.Fatal(err)
		}
		if chi.Reject {
			chiRej++
		}
	}
	t.Logf("rejections over %d reps: AD=%d KS=%d chi2=%d", reps, adRej, ksRej, chiRej)
	if adRej < ksRej {
		t.Errorf("AD (%d) less powerful than KS (%d) against lognormal", adRej, ksRej)
	}
	if adRej < chiRej {
		t.Errorf("AD (%d) less powerful than chi-square (%d) against lognormal", adRej, chiRej)
	}
	if adRej < reps/2 {
		t.Errorf("AD rejected only %d/%d lognormal samples", adRej, reps)
	}
}

func TestChiSquareUpperTail(t *testing.T) {
	// Chi-square with 2 dof is exponential(1/2): P[X >= x] = exp(-x/2).
	for _, x := range []float64{0.5, 1, 2, 5} {
		got, err := chiSquareUpperTail(x, 2)
		if err != nil {
			t.Fatal(err)
		}
		want := math.Exp(-x / 2)
		if math.Abs(got-want) > 1e-10 {
			t.Errorf("upper tail(%v, 2) = %v, want %v", x, got, want)
		}
	}
	if p, _ := chiSquareUpperTail(-1, 3); p != 1 {
		t.Error("negative statistic should return p=1")
	}
}

// BenchmarkExponentialityTests compares the cost of the three tests.
func BenchmarkExponentialityTests(b *testing.B) {
	x := expSample(b, 1, 1000, 6)
	b.Run("anderson-darling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AndersonDarlingExponential(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kolmogorov-smirnov", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := KolmogorovSmirnovExponential(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("chi-square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := ChiSquareExponential(x); err != nil {
				b.Fatal(err)
			}
		}
	})
}
