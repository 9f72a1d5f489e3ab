package heavytail

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fullweb/internal/dist"
	"fullweb/internal/stats"
)

func paretoSample(t testing.TB, alpha, xm float64, n int, seed int64) []float64 {
	t.Helper()
	d, err := dist.NewPareto(alpha, xm)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = d.Sample(rng)
	}
	return x
}

func lognormalSample(t testing.TB, mu, sigma float64, n int, seed int64) []float64 {
	t.Helper()
	d, err := dist.NewLognormal(mu, sigma)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, n)
	for i := range x {
		x[i] = d.Sample(rng)
	}
	return x
}

func TestEstimateLLCDRecoversPareto(t *testing.T) {
	// On exact Pareto data the LLCD slope equals -alpha over the whole
	// support; the paper's Table 2-4 workflow should recover alpha.
	for _, alpha := range []float64{0.9, 1.5, 2.3} {
		x := paretoSample(t, alpha, 1, 50000, int64(alpha*100))
		res, err := EstimateLLCD(x, 0)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		if math.Abs(res.Alpha-alpha) > 0.1 {
			t.Errorf("alpha=%v: LLCD estimate %v", alpha, res.Alpha)
		}
		if res.R2 < 0.97 {
			t.Errorf("alpha=%v: R2 = %v, want near 1 on exact Pareto", alpha, res.R2)
		}
	}
}

func TestEstimateLLCDWithCutoff(t *testing.T) {
	// Data that is only Pareto above a knee: uniform body below 10, Pareto
	// tail above. With theta at the knee the estimate is clean.
	rng := rand.New(rand.NewSource(5))
	par, _ := dist.NewPareto(1.7, 10)
	x := make([]float64, 40000)
	for i := range x {
		if i%2 == 0 {
			x[i] = rng.Float64() * 10
		} else {
			x[i] = par.Sample(rng)
		}
	}
	res, err := EstimateLLCD(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Alpha-1.7) > 0.12 {
		t.Errorf("LLCD alpha above knee = %v, want ~1.7", res.Alpha)
	}
	if res.TailFraction > 0.55 || res.TailFraction < 0.4 {
		t.Errorf("tail fraction %v, want ~0.5", res.TailFraction)
	}
}

func TestEstimateLLCDErrors(t *testing.T) {
	if _, err := EstimateLLCD(nil, 0); err == nil {
		t.Error("empty sample should error")
	}
	if _, err := EstimateLLCD([]float64{1, 2, -3}, 0); !errors.Is(err, ErrSupport) {
		t.Error("negative data should return ErrSupport")
	}
	if _, err := EstimateLLCD([]float64{1, 2, 3}, math.NaN()); !errors.Is(err, ErrBadParam) {
		t.Error("NaN theta should return ErrBadParam")
	}
	x := paretoSample(t, 1.5, 1, 1000, 6)
	if _, err := EstimateLLCD(x, 1e12); !errors.Is(err, ErrTooFewTail) {
		t.Error("theta above max should return ErrTooFewTail")
	}
}

func TestEstimateLLCDAuto(t *testing.T) {
	x := paretoSample(t, 1.4, 2, 30000, 7)
	res, err := EstimateLLCDAuto(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Alpha-1.4) > 0.15 {
		t.Errorf("auto LLCD alpha = %v, want ~1.4", res.Alpha)
	}
}

func TestEstimateLLCDAutoTooSmall(t *testing.T) {
	if _, err := EstimateLLCDAuto([]float64{1, 2, 3, 4, 5}); err == nil {
		t.Error("tiny sample should error")
	}
}

// Property: LLCD alpha is invariant under positive scaling of the data
// (scaling shifts the plot horizontally without changing the slope).
func TestLLCDScaleInvarianceProperty(t *testing.T) {
	base := paretoSample(t, 1.6, 1, 5000, 8)
	f := func(rawScale float64) bool {
		scale := 0.5 + math.Mod(math.Abs(rawScale), 100)
		if math.IsNaN(scale) {
			return true
		}
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = v * scale
		}
		a, err1 := EstimateLLCD(base, 0)
		b, err2 := EstimateLLCD(scaled, 0)
		if err1 != nil || err2 != nil {
			return false
		}
		return math.Abs(a.Alpha-b.Alpha) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestLLCDLognormalShowsHigherAlphaAtExtremeTail(t *testing.T) {
	// A lognormal LLCD steepens in the tail: the fitted "alpha" over the
	// extreme tail exceeds the one over a wider tail. This is the
	// diagnostic the paper discusses (Section 5.2.1).
	x := lognormalSample(t, 0, 2, 200000, 9)
	wide, err := EstimateLLCD(x, 1)
	if err != nil {
		t.Fatal(err)
	}
	q99, err := stats.Quantile(x, 0.99)
	if err != nil {
		t.Fatal(err)
	}
	extreme, err := EstimateLLCD(x, q99)
	if err != nil {
		t.Fatal(err)
	}
	if extreme.Alpha <= wide.Alpha {
		t.Errorf("lognormal tail should steepen: wide %v vs extreme %v", wide.Alpha, extreme.Alpha)
	}
}
