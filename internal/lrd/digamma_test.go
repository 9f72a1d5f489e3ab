package lrd

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDigammaKnownValues(t *testing.T) {
	const eulerGamma = 0.5772156649015329
	cases := []struct {
		x, want float64
	}{
		{1, -eulerGamma},
		{2, 1 - eulerGamma},
		{0.5, -eulerGamma - 2*math.Ln2},
		{10, 2.251752589066721},
		{100, 4.600161852738087},
	}
	for _, c := range cases {
		got, err := digamma(c.x)
		if err != nil {
			t.Fatalf("digamma(%v): %v", c.x, err)
		}
		if math.Abs(got-c.want) > 1e-10 {
			t.Errorf("digamma(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestDigammaDomain(t *testing.T) {
	for _, x := range []float64{0, -1, math.NaN()} {
		if _, err := digamma(x); err == nil {
			t.Errorf("digamma(%v) should error", x)
		}
	}
}

func TestDigammaRecurrenceProperty(t *testing.T) {
	// psi(x+1) = psi(x) + 1/x for all x > 0.
	f := func(raw float64) bool {
		x := math.Abs(raw)
		if x < 1e-3 || x > 1e6 || math.IsNaN(x) || math.IsInf(x, 0) {
			return true
		}
		a, err1 := digamma(x + 1)
		b, err2 := digamma(x)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a-(b+1/x)) < 1e-9*(1+math.Abs(a))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
