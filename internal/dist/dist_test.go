package dist

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func sampleN(d Continuous, n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = d.Sample(rng)
	}
	return x
}

func TestNewExponentialInvalid(t *testing.T) {
	for _, l := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(l); !errors.Is(err, ErrParam) {
			t.Errorf("NewExponential(%v) error = %v, want ErrParam", l, err)
		}
	}
}

func TestFitPareto(t *testing.T) {
	d, _ := NewPareto(1.8, 3)
	x := sampleN(d, 50000, 2)
	fit, err := FitPareto(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Alpha-1.8) > 0.05 {
		t.Fatalf("fitted alpha = %v, want ~1.8", fit.Alpha)
	}
	if math.Abs(fit.Xm-3) > 0.01 {
		t.Fatalf("fitted xm = %v, want ~3", fit.Xm)
	}
	if _, err := FitPareto([]float64{2, 2, 2}); !errors.Is(err, ErrSupport) {
		t.Error("constant data should return ErrSupport")
	}
}

func TestFitLognormal(t *testing.T) {
	d, _ := NewLognormal(2, 1.5)
	x := sampleN(d, 50000, 3)
	fit, err := FitLognormal(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.Mu-2) > 0.05 || math.Abs(fit.Sigma-1.5) > 0.05 {
		t.Fatalf("fitted = %+v, want mu=2 sigma=1.5", fit)
	}
}

// Property: samples always lie in the distribution's support.
func TestSampleSupportProperty(t *testing.T) {
	par, _ := NewPareto(1.1, 2.5)
	exp, _ := NewExponential(0.4)
	lgn, _ := NewLognormal(0, 1)
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 20; i++ {
			if v := par.Sample(rng); v < par.Xm {
				return false
			}
			if v := exp.Sample(rng); v < 0 {
				return false
			}
			if v := lgn.Sample(rng); v <= 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSampleMeansMatch(t *testing.T) {
	// Theoretical means: 1/lambda, alpha*xm/(alpha-1) and
	// exp(mu + sigma^2/2).
	cases := []struct {
		name string
		d    Continuous
		mean float64
		tol  float64
	}{
		{"exponential", mustExp(t, 0.25), 4, 0.1},
		{"pareto-finite-var", mustPar(t, 3.5, 2), 3.5 * 2 / 2.5, 0.1},
		{"lognormal", mustLgn(t, 1, 0.5), math.Exp(1.125), 0.1},
	}
	for _, c := range cases {
		x := sampleN(c.d, 100000, 42)
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		mean := sum / float64(len(x))
		if math.Abs(mean-c.mean) > c.tol*(1+math.Abs(c.mean)) {
			t.Errorf("%s: sample mean %v vs theoretical %v", c.name, mean, c.mean)
		}
	}
}

func mustExp(t *testing.T, l float64) Exponential {
	t.Helper()
	d, err := NewExponential(l)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustPar(t *testing.T, a, xm float64) Pareto {
	t.Helper()
	d, err := NewPareto(a, xm)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func mustLgn(t *testing.T, mu, s float64) Lognormal {
	t.Helper()
	d, err := NewLognormal(mu, s)
	if err != nil {
		t.Fatal(err)
	}
	return d
}
