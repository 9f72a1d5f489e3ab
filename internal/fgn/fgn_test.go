package fgn

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fullweb/internal/stats"
)

func TestAutocovarianceBasics(t *testing.T) {
	if got := Autocovariance(0.8, 0); got != 1 {
		t.Fatalf("gamma(0) = %v, want 1", got)
	}
	// White noise (H = 0.5) has zero autocovariance at all nonzero lags.
	for k := 1; k <= 10; k++ {
		if got := Autocovariance(0.5, k); math.Abs(got) > 1e-12 {
			t.Errorf("H=0.5 gamma(%d) = %v, want 0", k, got)
		}
	}
	// LRD: positive, slowly decaying covariances for H > 0.5.
	prev := math.Inf(1)
	for k := 1; k <= 100; k++ {
		g := Autocovariance(0.85, k)
		if g <= 0 {
			t.Fatalf("H=0.85 gamma(%d) = %v, want positive", k, g)
		}
		if g >= prev {
			t.Fatalf("H=0.85 gamma(%d) = %v not decreasing (prev %v)", k, g, prev)
		}
		prev = g
	}
	// Symmetry in lag.
	if Autocovariance(0.7, 5) != Autocovariance(0.7, -5) {
		t.Error("autocovariance should be symmetric in lag")
	}
}

func TestAutocovarianceAsymptoticDecay(t *testing.T) {
	// gamma(k) ~ H(2H-1) k^{2H-2} for large k.
	h := 0.8
	for _, k := range []int{100, 1000} {
		got := Autocovariance(h, k)
		want := h * (2*h - 1) * math.Pow(float64(k), 2*h-2)
		if math.Abs(got-want)/want > 0.01 {
			t.Errorf("gamma(%d) = %v, asymptotic %v", k, got, want)
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, h := range []float64{0, 1, -0.5, 1.5, math.NaN()} {
		if _, err := Generate(rng, h, 100); !errors.Is(err, ErrHurst) {
			t.Errorf("Generate(h=%v) error = %v, want ErrHurst", h, err)
		}
	}
	if _, err := Generate(rng, 0.7, 0); !errors.Is(err, ErrLength) {
		t.Error("n=0 should return ErrLength")
	}
	if _, err := Generate(nil, 0.7, 10); err == nil {
		t.Error("nil rng should error")
	}
}

func TestGenerateMomentsAndLength(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, h := range []float64{0.5, 0.7, 0.9} {
		x, err := Generate(rng, h, 1<<15)
		if err != nil {
			t.Fatal(err)
		}
		if len(x) != 1<<15 {
			t.Fatalf("length %d, want %d", len(x), 1<<15)
		}
		m, _ := stats.Mean(x)
		v, _ := stats.Variance(x)
		// The sample mean of fGn has standard deviation ~ n^{H-1}, which
		// converges very slowly for H near 1; use a 4-sigma band.
		meanSD := math.Pow(float64(len(x)), h-1)
		if math.Abs(m) > 4*meanSD {
			t.Errorf("H=%v: sample mean %v beyond 4*%v", h, m, meanSD)
		}
		if math.Abs(v-1) > 0.15 {
			t.Errorf("H=%v: sample variance %v too far from 1", h, v)
		}
	}
}

func TestGenerateACFMatchesTheory(t *testing.T) {
	// Average the empirical ACF over several independent replications and
	// compare with the theoretical fGn autocovariance.
	const (
		h    = 0.8
		n    = 1 << 14
		reps = 8
		lags = 20
	)
	rng := rand.New(rand.NewSource(3))
	avg := make([]float64, lags+1)
	for r := 0; r < reps; r++ {
		x, err := Generate(rng, h, n)
		if err != nil {
			t.Fatal(err)
		}
		acf, err := stats.AutocorrelationFFT(x, lags)
		if err != nil {
			t.Fatal(err)
		}
		for k := range avg {
			avg[k] += acf[k] / reps
		}
	}
	for k := 1; k <= lags; k++ {
		want := Autocovariance(h, k) // unit variance: autocorrelation == autocovariance
		if math.Abs(avg[k]-want) > 0.03 {
			t.Errorf("lag %d: empirical acf %v, theory %v", k, avg[k], want)
		}
	}
}

func TestGenerateWhiteNoiseUncorrelated(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x, err := Generate(rng, 0.5, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	acf, err := stats.AutocorrelationFFT(x, 5)
	if err != nil {
		t.Fatal(err)
	}
	bound := 4 / math.Sqrt(float64(len(x)))
	for k := 1; k <= 5; k++ {
		if math.Abs(acf[k]) > bound {
			t.Errorf("H=0.5 acf[%d] = %v beyond %v", k, acf[k], bound)
		}
	}
}

func TestGenerateAggregationVarianceScaling(t *testing.T) {
	// For self-similar increments, Var(X^{(m)}) ~ m^{2H-2}. Check the
	// ratio across one decade of aggregation.
	const (
		h = 0.85
		n = 1 << 17
	)
	rng := rand.New(rand.NewSource(5))
	x, err := Generate(rng, h, n)
	if err != nil {
		t.Fatal(err)
	}
	varAt := func(m int) float64 {
		agg := make([]float64, len(x)/m)
		for i := range agg {
			s := 0.0
			for j := 0; j < m; j++ {
				s += x[i*m+j]
			}
			agg[i] = s / float64(m)
		}
		v, _ := stats.PopulationVariance(agg)
		return v
	}
	v10, v100 := varAt(10), varAt(100)
	gotSlope := math.Log(v100/v10) / math.Log(10)
	wantSlope := 2*h - 2
	if math.Abs(gotSlope-wantSlope) > 0.12 {
		t.Fatalf("aggregated variance slope %v, want %v", gotSlope, wantSlope)
	}
}

// Property: generation is deterministic given the seed, and different
// seeds give different paths.
func TestGenerateDeterministicProperty(t *testing.T) {
	f := func(seed int64) bool {
		a, err1 := Generate(rand.New(rand.NewSource(seed)), 0.75, 256)
		b, err2 := Generate(rand.New(rand.NewSource(seed)), 0.75, 256)
		if err1 != nil || err2 != nil {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		c, err3 := Generate(rand.New(rand.NewSource(seed+1)), 0.75, 256)
		if err3 != nil {
			return false
		}
		same := true
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
		return !same
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestHurstFromOnOffAlpha(t *testing.T) {
	h, err := HurstFromOnOffAlpha(1.4)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(h-0.8) > 1e-12 {
		t.Fatalf("H = %v, want 0.8", h)
	}
	for _, a := range []float64{1, 2, 0.5, 3, math.NaN()} {
		if _, err := HurstFromOnOffAlpha(a); err == nil {
			t.Errorf("alpha=%v should error", a)
		}
	}
}

func TestGenerateOnOff(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cfg := OnOffConfig{Sources: 50, Alpha: 1.5, MinPeriod: 1, Rate: 1}
	x, err := GenerateOnOff(rng, cfg, 10000)
	if err != nil {
		t.Fatal(err)
	}
	if len(x) != 10000 {
		t.Fatalf("length %d", len(x))
	}
	// Each bin holds between 0 and Sources units.
	for i, v := range x {
		if v < 0 || v > float64(cfg.Sources) {
			t.Fatalf("bin %d = %v outside [0, %d]", i, v, cfg.Sources)
		}
	}
	// Roughly half the sources are ON on average.
	m, _ := stats.Mean(x)
	if m < 10 || m > 40 {
		t.Fatalf("mean aggregate %v implausible for 50 sources", m)
	}
	// The aggregate must be positively correlated at short lags
	// (long-range dependence shows up as slowly decaying positive ACF).
	acf, err := stats.AutocorrelationFFT(x, 50)
	if err != nil {
		t.Fatal(err)
	}
	if acf[1] < 0.3 || acf[50] < 0.01 {
		t.Fatalf("ON/OFF aggregate not persistently correlated: acf[1]=%v acf[50]=%v", acf[1], acf[50])
	}
}

func TestGenerateOnOffErrors(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	good := OnOffConfig{Sources: 10, Alpha: 1.5, MinPeriod: 1, Rate: 1}
	if _, err := GenerateOnOff(rng, good, 0); !errors.Is(err, ErrLength) {
		t.Error("n=0 should return ErrLength")
	}
	bad := good
	bad.Sources = 0
	if _, err := GenerateOnOff(rng, bad, 10); err == nil {
		t.Error("0 sources should error")
	}
	bad = good
	bad.Rate = 0
	if _, err := GenerateOnOff(rng, bad, 10); err == nil {
		t.Error("0 rate should error")
	}
	bad = good
	bad.Alpha = -2
	if _, err := GenerateOnOff(rng, bad, 10); err == nil {
		t.Error("bad alpha should error")
	}
}

func BenchmarkFGNSources(b *testing.B) {
	b.Run("davies-harte-65536", func(b *testing.B) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < b.N; i++ {
			if _, err := Generate(rng, 0.8, 1<<16); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onoff-50src-65536", func(b *testing.B) {
		rng := rand.New(rand.NewSource(10))
		cfg := OnOffConfig{Sources: 50, Alpha: 1.4, MinPeriod: 1, Rate: 1}
		for i := 0; i < b.N; i++ {
			if _, err := GenerateOnOff(rng, cfg, 1<<16); err != nil {
				b.Fatal(err)
			}
		}
	})
}
