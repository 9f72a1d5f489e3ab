package gof

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"fullweb/internal/dist"
)

// The paper justifies Anderson-Darling by noting it is "generally much
// more powerful than either of better known Kolmogorov-Smirnov or chi^2
// tests". The two alternatives live here as the test-only oracles of
// TestPowerComparisonADBeatsKSAndChi2, the check behind that claim.

// powerN is the sample size of the power comparison. The chi-square
// oracle is written for it: n/5 = 30 equiprobable bins, 28 degrees of
// freedom.
const powerN = 150

const (
	// ksCritical is the 5% critical value of the modified KS statistic
	// with estimated exponential scale (Stephens 1974).
	ksCritical = 1.094
	// chi2Bins and chi2Critical are the bin count at powerN and the
	// tabulated 5% critical value of chi-square with chi2Bins-2 = 28
	// degrees of freedom (one for the bin constraint, one for the
	// estimated rate).
	chi2Bins     = powerN / 5
	chi2Critical = 41.337
)

// ksRejects reports whether the Kolmogorov-Smirnov test rejects, at the
// 5% level, that the positive sample x is exponential with unknown
// rate: Stephens' modified D = sup |F_n - F| at the MLE rate.
func ksRejects(x []float64) bool {
	n := float64(len(x))
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	lambda := n / sum
	sorted := append([]float64(nil), x...)
	sort.Float64s(sorted)
	d := 0.0
	for i, v := range sorted {
		f := -math.Expm1(-lambda * v)
		d = math.Max(d, math.Max(float64(i+1)/n-f, f-float64(i)/n))
	}
	sq := math.Sqrt(n)
	return (d-0.2/n)*(sq+0.26+0.5/sq) > ksCritical
}

// chi2Rejects reports whether Pearson's chi-square over chi2Bins
// equiprobable bins of the fitted exponential rejects exponentiality of
// the positive sample x at the 5% level. x must hold powerN values.
func chi2Rejects(t testing.TB, x []float64) bool {
	t.Helper()
	if len(x) != powerN {
		t.Fatalf("chi-square oracle takes %d observations, got %d", powerN, len(x))
	}
	sum := 0.0
	for _, v := range x {
		sum += v
	}
	lambda := float64(len(x)) / sum
	var counts [chi2Bins]int
	for _, v := range x {
		idx := int(-math.Expm1(-lambda*v) * chi2Bins)
		counts[min(idx, chi2Bins-1)]++
	}
	expected := float64(len(x)) / chi2Bins
	statistic := 0.0
	for _, c := range counts {
		d := float64(c) - expected
		statistic += d * d / expected
	}
	return statistic > chi2Critical
}

func expSample(t testing.TB, rate float64, n int, seed int64) []float64 {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() / rate
	}
	return x
}

// The oracles' size and power: a comparison is only fair if neither
// competitor rejects exponential data more often than its 5% level
// allows, and each rejects a plainly non-exponential sample.

func TestKSAcceptsExponential(t *testing.T) {
	rejections := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		if ksRejects(expSample(t, 2, 400, int64(r+1))) {
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
	if !ksRejects(x) {
		t.Fatal("KS accepted uniform data")
	}
}

func TestChi2AcceptsExponential(t *testing.T) {
	rejections := 0
	const reps = 40
	for r := 0; r < reps; r++ {
		if chi2Rejects(t, expSample(t, 0.5, powerN, int64(r+100))) {
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
	x := make([]float64, powerN)
	for i := range x {
		x[i] = par.Sample(rng)
	}
	if !chi2Rejects(t, x) {
		t.Fatal("chi-square accepted Pareto data")
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
	const reps = 60
	adRej, ksRej, chiRej := 0, 0, 0
	for r := 0; r < reps; r++ {
		rng := rand.New(rand.NewSource(int64(r + 500)))
		x := make([]float64, powerN)
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
		if ksRejects(x) {
			ksRej++
		}
		if chi2Rejects(t, x) {
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

// rejectSink keeps the benchmarked oracle calls from being optimized
// away.
var rejectSink bool

// BenchmarkExponentialityTests compares the cost of the three tests at
// the power comparison's sample size.
func BenchmarkExponentialityTests(b *testing.B) {
	x := expSample(b, 1, powerN, 6)
	b.Run("anderson-darling", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := AndersonDarlingExponential(x); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("kolmogorov-smirnov", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rejectSink = ksRejects(x)
		}
	})
	b.Run("chi-square", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rejectSink = chi2Rejects(b, x)
		}
	})
}
