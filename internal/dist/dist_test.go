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

func TestExponentialBasics(t *testing.T) {
	d, err := NewExponential(2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Mean() != 0.5 || d.Var() != 0.25 {
		t.Fatalf("moments = %v, %v", d.Mean(), d.Var())
	}
	if got := d.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	want := 1 - math.Exp(-2)
	if got := d.CDF(1); math.Abs(got-want) > 1e-14 {
		t.Fatalf("CDF(1) = %v, want %v", got, want)
	}
	q, err := d.Quantile(0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d.CDF(q)-0.5) > 1e-12 {
		t.Fatalf("CDF(Quantile(0.5)) = %v", d.CDF(q))
	}
}

func TestNewExponentialInvalid(t *testing.T) {
	for _, l := range []float64{0, -1, math.NaN(), math.Inf(1)} {
		if _, err := NewExponential(l); !errors.Is(err, ErrParam) {
			t.Errorf("NewExponential(%v) error = %v, want ErrParam", l, err)
		}
	}
}

func TestParetoBasics(t *testing.T) {
	d, err := NewPareto(2.5, 1.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CDF(1); got != 0 {
		t.Fatalf("CDF below xm = %v", got)
	}
	if got := d.CDF(3); math.Abs(got-(1-math.Pow(0.5, 2.5))) > 1e-14 {
		t.Fatalf("CDF(3) = %v", got)
	}
	wantMean := 2.5 * 1.5 / 1.5
	if math.Abs(d.Mean()-wantMean) > 1e-14 {
		t.Fatalf("Mean = %v, want %v", d.Mean(), wantMean)
	}
	if math.IsInf(d.Var(), 1) {
		t.Fatal("alpha=2.5 should have finite variance")
	}
}

func TestParetoInfiniteMoments(t *testing.T) {
	heavy, _ := NewPareto(1.5, 1)
	if !math.IsInf(heavy.Var(), 1) {
		t.Error("alpha=1.5 should have infinite variance")
	}
	if math.IsInf(heavy.Mean(), 1) {
		t.Error("alpha=1.5 should have finite mean")
	}
	veryHeavy, _ := NewPareto(0.8, 1)
	if !math.IsInf(veryHeavy.Mean(), 1) {
		t.Error("alpha=0.8 should have infinite mean")
	}
}

func TestParetoQuantileInvertsCDF(t *testing.T) {
	d, _ := NewPareto(1.3, 2)
	for _, p := range []float64{0, 0.1, 0.5, 0.9, 0.999} {
		q, err := d.Quantile(p)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(d.CDF(q)-p) > 1e-12 {
			t.Errorf("CDF(Quantile(%v)) = %v", p, d.CDF(q))
		}
	}
	if _, err := d.Quantile(1); !errors.Is(err, ErrParam) {
		t.Error("Quantile(1) should error for Pareto")
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

func TestLognormalBasics(t *testing.T) {
	d, err := NewLognormal(1, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if got := d.CDF(0); got != 0 {
		t.Fatalf("CDF(0) = %v", got)
	}
	// Median is exp(mu).
	if math.Abs(d.CDF(math.E)-0.5) > 1e-12 {
		t.Fatalf("CDF(e^mu) = %v, want 0.5", d.CDF(math.E))
	}
	wantMean := math.Exp(1 + 0.125)
	if math.Abs(d.Mean()-wantMean) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", d.Mean(), wantMean)
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

// Property: for every distribution, CDF(Quantile(p)) == p on the interior.
func TestQuantileCDFInverseProperty(t *testing.T) {
	exp, _ := NewExponential(1.7)
	par, _ := NewPareto(1.2, 0.5)
	lgn, _ := NewLognormal(0.3, 2)
	dists := []Continuous{exp, par, lgn}
	f := func(rawP float64, which uint8) bool {
		p := math.Mod(math.Abs(rawP), 1)
		if p <= 1e-9 || p >= 1-1e-9 || math.IsNaN(p) {
			return true
		}
		d := dists[int(which)%len(dists)]
		q, err := d.Quantile(p)
		if err != nil {
			return false
		}
		return math.Abs(d.CDF(q)-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
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
	cases := []struct {
		name string
		d    Continuous
		tol  float64
	}{
		{"exponential", mustExp(t, 0.25), 0.1},
		{"pareto-finite-var", mustPar(t, 3.5, 2), 0.1},
		{"lognormal", mustLgn(t, 1, 0.5), 0.1},
	}
	for _, c := range cases {
		x := sampleN(c.d, 100000, 42)
		sum := 0.0
		for _, v := range x {
			sum += v
		}
		mean := sum / float64(len(x))
		if math.Abs(mean-c.d.Mean()) > c.tol*(1+math.Abs(c.d.Mean())) {
			t.Errorf("%s: sample mean %v vs theoretical %v", c.name, mean, c.d.Mean())
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
