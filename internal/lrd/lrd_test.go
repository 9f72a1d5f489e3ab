package lrd

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/fgn"
)

// groundTruth generates exact fGn with the given H for estimator
// validation.
func groundTruth(t testing.TB, h float64, n int, seed int64) []float64 {
	t.Helper()
	x, err := fgn.Generate(rand.New(rand.NewSource(seed)), h, n)
	if err != nil {
		t.Fatal(err)
	}
	return x
}

// checkRecovery asserts that an estimator applied to exact fGn recovers
// the planted H within tol.
func checkRecovery(t *testing.T, est Estimator, h, tol float64, seed int64) {
	t.Helper()
	x := groundTruth(t, h, 1<<15, seed)
	e, err := est(x)
	if err != nil {
		t.Fatalf("H=%v: %v", h, err)
	}
	if math.Abs(e.H-h) > tol {
		t.Errorf("%v on fGn(H=%v): estimated %v (tol %v)", e.Method, h, e.H, tol)
	}
}

func TestAggregatedVarianceRecovery(t *testing.T) {
	// The variance-time estimator is known to be biased toward 0.5 in
	// finite samples; use a loose tolerance.
	for i, h := range []float64{0.5, 0.7, 0.9} {
		checkRecovery(t, EstimateAggregatedVariance, h, 0.1, int64(i+1))
	}
}

func TestRSRecovery(t *testing.T) {
	// R/S has well-documented small-sample bias (overestimates for
	// H=0.5); tolerance reflects that.
	for i, h := range []float64{0.6, 0.8} {
		checkRecovery(t, EstimateRS, h, 0.12, int64(i+10))
	}
}

func TestPeriodogramRecovery(t *testing.T) {
	for i, h := range []float64{0.5, 0.7, 0.9} {
		checkRecovery(t, EstimatePeriodogram, h, 0.08, int64(i+20))
	}
}

func TestWhittleRecovery(t *testing.T) {
	// Whittle on exact fGn is the most accurate of the five.
	for i, h := range []float64{0.5, 0.6, 0.7, 0.8, 0.9} {
		checkRecovery(t, EstimateWhittle, h, 0.03, int64(i+30))
	}
}

func TestAbryVeitchRecovery(t *testing.T) {
	for i, h := range []float64{0.5, 0.7, 0.9} {
		checkRecovery(t, EstimateAbryVeitch, h, 0.06, int64(i+40))
	}
}

func TestWhittleConfidenceIntervalCoverageAndCalibration(t *testing.T) {
	// Empirical check of the asymptotic standard error: over replications
	// of exact fGn, the spread of the estimates should match the reported
	// SE within a factor of ~2, and most CIs should cover the truth.
	const (
		h    = 0.8
		n    = 1 << 13
		reps = 20
	)
	estimates := make([]float64, 0, reps)
	ses := make([]float64, 0, reps)
	cover := 0
	for r := 0; r < reps; r++ {
		x := groundTruth(t, h, n, int64(100+r))
		e, err := EstimateWhittle(x)
		if err != nil {
			t.Fatal(err)
		}
		if !e.HasCI {
			t.Fatal("Whittle must report a CI")
		}
		estimates = append(estimates, e.H)
		ses = append(ses, e.StdErr)
		if e.CI95Low <= h && h <= e.CI95High {
			cover++
		}
	}
	mean := 0.0
	for _, v := range estimates {
		mean += v
	}
	mean /= reps
	if math.Abs(mean-h) > 0.02 {
		t.Errorf("Whittle mean estimate %v, want ~%v", mean, h)
	}
	sd := 0.0
	for _, v := range estimates {
		sd += (v - mean) * (v - mean)
	}
	sd = math.Sqrt(sd / (reps - 1))
	meanSE := 0.0
	for _, v := range ses {
		meanSE += v
	}
	meanSE /= reps
	if meanSE < sd/2.5 || meanSE > sd*2.5 {
		t.Errorf("Whittle SE %v vs empirical SD %v: misaligned by > 2.5x", meanSE, sd)
	}
	if cover < reps*3/5 {
		t.Errorf("Whittle CI covered truth only %d/%d times", cover, reps)
	}
}

func TestAbryVeitchConfidenceInterval(t *testing.T) {
	const h = 0.75
	x := groundTruth(t, h, 1<<15, 7)
	e, err := EstimateAbryVeitch(x)
	if err != nil {
		t.Fatal(err)
	}
	if !e.HasCI {
		t.Fatal("Abry-Veitch must report a CI")
	}
	if e.CI95Low >= e.CI95High {
		t.Fatalf("CI [%v, %v] inverted", e.CI95Low, e.CI95High)
	}
	if e.CI95Low > h || h > e.CI95High {
		t.Errorf("CI [%v, %v] misses planted H=%v", e.CI95Low, e.CI95High, h)
	}
}

func TestEstimatorsTooShort(t *testing.T) {
	short := make([]float64, 50)
	for i := range short {
		short[i] = float64(i % 3)
	}
	for _, m := range AllMethods() {
		est, err := EstimatorFor(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est(short); !errors.Is(err, ErrTooShort) {
			t.Errorf("%v on short input: error %v, want ErrTooShort", m, err)
		}
	}
}

func TestEstimatorsConstantSeries(t *testing.T) {
	constant := make([]float64, 4096)
	for i := range constant {
		constant[i] = 42
	}
	for _, m := range AllMethods() {
		est, err := EstimatorFor(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := est(constant); err == nil {
			t.Errorf("%v on constant input should error", m)
		}
	}
}

func TestMethodString(t *testing.T) {
	want := map[Method]string{
		AggregatedVariance: "Variance",
		RS:                 "R/S",
		Periodogram:        "Periodogram",
		Whittle:            "Whittle",
		AbryVeitch:         "Abry-Veitch",
	}
	for m, s := range want {
		if m.String() != s {
			t.Errorf("%d.String() = %q, want %q", int(m), m.String(), s)
		}
	}
	if Method(42).String() == "" {
		t.Error("unknown method should stringify")
	}
}

func TestEstimatorForUnknown(t *testing.T) {
	if _, err := EstimatorFor(Method(42)); !errors.Is(err, ErrBadParam) {
		t.Error("unknown method should return ErrBadParam")
	}
}

// indicatesLRD reports whether the estimate indicates long-range
// dependence: H strictly between 0.5 and 1, the paper's criterion.
func indicatesLRD(e Estimate) bool {
	return e.H > 0.5 && e.H < 1
}

func TestEstimateIndicates(t *testing.T) {
	cases := []struct {
		h    float64
		want bool
	}{
		{0.4, false}, {0.5, false}, {0.6, true}, {0.99, true}, {1.0, false},
	}
	for _, c := range cases {
		e := Estimate{H: c.h}
		if indicatesLRD(e) != c.want {
			t.Errorf("indicatesLRD(H=%v) = %v, want %v", c.h, indicatesLRD(e), c.want)
		}
	}
}

func TestRunBattery(t *testing.T) {
	x := groundTruth(t, 0.8, 1<<14, 50)
	res, err := RunBatteryCtx(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Estimates) != 5 {
		t.Fatalf("battery produced %d estimates, want 5", len(res.Estimates))
	}
	for _, e := range res.Estimates {
		if !indicatesLRD(e) {
			t.Errorf("%v: H=%v does not indicate LRD on fGn with H=0.8", e.Method, e.H)
		}
	}
	w, ok := res.ByMethod(Whittle)
	if !ok {
		t.Fatal("Whittle estimate missing")
	}
	if math.Abs(w.H-0.8) > 0.05 {
		t.Errorf("battery Whittle H = %v", w.H)
	}
	if _, ok := res.ByMethod(Method(42)); ok {
		t.Error("ByMethod on unknown method should report false")
	}
}

func TestRunBatteryWhiteNoiseNotLRD(t *testing.T) {
	x := groundTruth(t, 0.5, 1<<14, 51)
	res, err := RunBatteryCtx(context.Background(), x, nil)
	if err != nil {
		t.Fatal(err)
	}
	// White noise: Whittle must sit near 0.5 and the battery must NOT
	// unanimously indicate LRD.
	w, ok := res.ByMethod(Whittle)
	if !ok {
		t.Fatal("Whittle estimate missing")
	}
	if math.Abs(w.H-0.5) > 0.03 {
		t.Errorf("Whittle on white noise: H = %v", w.H)
	}
}

func TestAggregationSweepStability(t *testing.T) {
	// On exact self-similar input, H(m) must stay near H across
	// aggregation levels — the paper's criterion for asymptotic
	// second-order self-similarity.
	const h = 0.85
	x := groundTruth(t, h, 1<<17, 52)
	levels := DefaultSweepLevels(len(x), 256)
	points, err := AggregationSweep(x, Whittle, levels)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) < 5 {
		t.Fatalf("sweep produced only %d points", len(points))
	}
	for _, p := range points {
		if math.Abs(p.Estimate.H-h) > 0.12 {
			t.Errorf("m=%d: H=%v drifted from %v", p.M, p.Estimate.H, h)
		}
	}
	// Confidence intervals must widen as aggregation reduces the sample
	// (footnote 2 of the paper).
	first, last := points[0], points[len(points)-1]
	if last.Estimate.StdErr <= first.Estimate.StdErr {
		t.Errorf("CI did not widen with aggregation: SE(m=%d)=%v vs SE(m=%d)=%v",
			first.M, first.Estimate.StdErr, last.M, last.Estimate.StdErr)
	}
}

func TestAggregationSweepErrors(t *testing.T) {
	x := groundTruth(t, 0.7, 1024, 53)
	if _, err := AggregationSweep(x, Whittle, nil); !errors.Is(err, ErrBadParam) {
		t.Error("empty level list should return ErrBadParam")
	}
	if _, err := AggregationSweep(x, Method(42), []int{1}); !errors.Is(err, ErrBadParam) {
		t.Error("unknown method should return ErrBadParam")
	}
	if _, err := AggregationSweep(x, Whittle, []int{100000}); !errors.Is(err, ErrTooShort) {
		t.Error("all-too-large levels should return ErrTooShort")
	}
}

func TestDefaultSweepLevels(t *testing.T) {
	levels := DefaultSweepLevels(600000, 1000)
	if len(levels) == 0 || levels[0] != 1 {
		t.Fatalf("levels = %v", levels)
	}
	for _, m := range levels {
		if 600000/m < 1000 {
			t.Errorf("level %d leaves fewer than 1000 blocks", m)
		}
	}
	if len(DefaultSweepLevels(100, 1000)) != 0 {
		t.Error("too-short series should produce no levels")
	}
}

func TestAbryVeitchConfigValidation(t *testing.T) {
	x := groundTruth(t, 0.7, 4096, 54)
	if _, err := EstimateAbryVeitchConfig(x, AbryVeitchConfig{Filter: 1, J1: 0, MinCoeffs: 8}); !errors.Is(err, ErrBadParam) {
		t.Error("J1=0 should return ErrBadParam")
	}
	if _, err := EstimateAbryVeitchConfig(x, AbryVeitchConfig{Filter: 1, J1: 1, MinCoeffs: 1}); !errors.Is(err, ErrBadParam) {
		t.Error("MinCoeffs=1 should return ErrBadParam")
	}
	// Haar works too.
	e, err := EstimateAbryVeitchConfig(x, AbryVeitchConfig{Filter: 1, J1: 2, MinCoeffs: 8})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(e.H-0.7) > 0.12 {
		t.Errorf("Haar AV estimate %v", e.H)
	}
}

func TestWhittleSpectralDensityProperties(t *testing.T) {
	// B(lambda, H) decreases in lambda on (0, pi] and f1 is positive.
	for _, h := range []float64{0.55, 0.75, 0.95} {
		prev := math.Inf(1)
		for _, lambda := range []float64{0.01, 0.1, 0.5, 1, 2, 3, math.Pi} {
			b := fgnSpectralB(lambda, h, 50)
			if b <= 0 || b >= prev {
				t.Fatalf("B(%v, %v) = %v not positive-decreasing (prev %v)", lambda, h, b, prev)
			}
			prev = b
		}
	}
}

func TestWhittleSpectrumLowFrequencyPowerLaw(t *testing.T) {
	// Near the origin f(lambda) ~ lambda^{1-2H}: check the log-log slope.
	h := 0.8
	l1, l2 := 1e-3, 1e-2
	f1 := fgnLogSpectrum(l1, h)
	f2 := fgnLogSpectrum(l2, h)
	slope := (f2 - f1) / (math.Log(l2) - math.Log(l1))
	want := 1 - 2*h
	if math.Abs(slope-want) > 0.02 {
		t.Fatalf("low-frequency slope %v, want %v", slope, want)
	}
}

func BenchmarkWhittle65536(b *testing.B) {
	x := groundTruth(b, 0.8, 1<<16, 60)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateWhittle(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAbryVeitch65536(b *testing.B) {
	x := groundTruth(b, 0.8, 1<<16, 61)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := EstimateAbryVeitch(x); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBattery16384(b *testing.B) {
	x := groundTruth(b, 0.8, 1<<14, 62)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RunBatteryCtx(context.Background(), x, nil); err != nil {
			b.Fatal(err)
		}
	}
}
