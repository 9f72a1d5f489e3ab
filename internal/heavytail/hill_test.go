package heavytail

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestHillPlotRecoversPareto(t *testing.T) {
	for _, alpha := range []float64{1.0, 1.6, 2.2} {
		x := paretoSample(t, alpha, 1, 30000, int64(alpha*1000))
		plot, err := HillPlot(x, len(x)/5)
		if err != nil {
			t.Fatalf("alpha=%v: %v", alpha, err)
		}
		// The plot at large k should be near alpha.
		last := plot[len(plot)-1]
		if math.Abs(last.Alpha-alpha) > 0.1 {
			t.Errorf("alpha=%v: Hill at k=%d is %v", alpha, last.K, last.Alpha)
		}
	}
}

func TestHillPlotStartsAtKOne(t *testing.T) {
	// The classical Hill plot includes k = 1: alpha_{1,n} is the
	// reciprocal of log X_(1) - log X_(2). A regression dropped this first
	// order statistic.
	x := []float64{math.E * math.E * math.E, math.E, 1, 1}
	plot, err := HillPlot(x, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plot[0].K != 1 {
		t.Fatalf("first plot point at k=%d, want 1", plot[0].K)
	}
	// log X_(1) - log X_(2) = 3 - 1 = 2, so alpha_{1,n} = 0.5.
	if math.Abs(plot[0].Alpha-0.5) > 1e-12 {
		t.Errorf("alpha_{1,n} = %v, want 0.5", plot[0].Alpha)
	}
	// Ties at the top are still skipped, not emitted as infinities: with
	// X_(1) == X_(2) the k=1 spacing is zero.
	tied := []float64{7, 7, 2, 1}
	plot, err = HillPlot(tied, 3)
	if err != nil {
		t.Fatal(err)
	}
	if plot[0].K == 1 {
		t.Errorf("tied maxima must skip k=1, got alpha=%v", plot[0].Alpha)
	}
}

func TestHillPlotErrors(t *testing.T) {
	if _, err := HillPlot([]float64{1, 2}, 2); !errors.Is(err, ErrTooFewTail) {
		t.Error("tiny sample should return ErrTooFewTail")
	}
	if _, err := HillPlot([]float64{1, 2, 3}, 1); !errors.Is(err, ErrBadParam) {
		t.Error("kMax < 2 should return ErrBadParam")
	}
	if _, err := HillPlot([]float64{1, 0, 3}, 2); !errors.Is(err, ErrSupport) {
		t.Error("non-positive data should return ErrSupport")
	}
	if _, err := HillPlot([]float64{5, 5, 5, 5}, 3); !errors.Is(err, ErrTooFewTail) {
		t.Error("constant sample should return ErrTooFewTail (degenerate tail)")
	}
}

func TestHillPlotKMaxCapped(t *testing.T) {
	x := paretoSample(t, 1.5, 1, 100, 1)
	plot, err := HillPlot(x, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if plot[len(plot)-1].K > 99 {
		t.Fatalf("k beyond n-1: %d", plot[len(plot)-1].K)
	}
}

func TestEstimateHillStableOnPareto(t *testing.T) {
	x := paretoSample(t, 1.58, 1, 20000, 2)
	res, err := EstimateHill(x, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Stable {
		t.Fatal("Hill should stabilize on exact Pareto")
	}
	if math.Abs(res.Alpha-1.58) > 0.15 {
		t.Errorf("stable Hill alpha = %v, want ~1.58", res.Alpha)
	}
	if res.WindowLow >= res.WindowHigh {
		t.Errorf("window [%d, %d] inverted", res.WindowLow, res.WindowHigh)
	}
}

func TestEstimateHillNotStableOnWildMixture(t *testing.T) {
	// A mixture with two very different tail regimes keeps the Hill plot
	// wandering; the paper annotates those "NS".
	heavy := paretoSample(t, 0.6, 1, 3000, 3)
	light := lognormalSample(t, 0, 0.3, 17000, 4)
	x := append(append([]float64{}, heavy...), light...)
	res, err := EstimateHill(x, 0.3, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stable {
		t.Errorf("mixture unexpectedly stabilized at alpha=%v window [%d,%d]", res.Alpha, res.WindowLow, res.WindowHigh)
	}
}

func TestEstimateHillParamValidation(t *testing.T) {
	x := paretoSample(t, 1.5, 1, 1000, 5)
	if _, err := EstimateHill(x, 0, 0.3); !errors.Is(err, ErrBadParam) {
		t.Error("zero tail fraction should return ErrBadParam")
	}
	if _, err := EstimateHill(x, 1.5, 0.3); !errors.Is(err, ErrBadParam) {
		t.Error("tail fraction > 1 should return ErrBadParam")
	}
	if _, err := EstimateHill(x, 0.14, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero tolerance should return ErrBadParam")
	}
	if _, err := EstimateHill(x[:50], 0.14, 0.3); !errors.Is(err, ErrTooFewTail) {
		t.Error("too-small sample should return ErrTooFewTail")
	}
}

// Property: Hill estimates are invariant under positive scaling (the
// estimator only uses log-spacings of order statistics).
func TestHillScaleInvarianceProperty(t *testing.T) {
	base := paretoSample(t, 1.3, 1, 2000, 6)
	f := func(rawScale float64) bool {
		scale := 0.5 + math.Mod(math.Abs(rawScale), 50)
		if math.IsNaN(scale) {
			return true
		}
		scaled := make([]float64, len(base))
		for i, v := range base {
			scaled[i] = v * scale
		}
		a, err1 := HillPlot(base, 200)
		b, err2 := HillPlot(scaled, 200)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		for i := range a {
			if math.Abs(a[i].Alpha-b[i].Alpha) > 1e-9*(1+a[i].Alpha) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: the Hill plot never reports non-positive alpha.
func TestHillPositiveProperty(t *testing.T) {
	f := func(seed int64) bool {
		x := paretoSample(t, 1.2, 1, 500, seed)
		plot, err := HillPlot(x, 100)
		if err != nil {
			return false
		}
		for _, p := range plot {
			if p.Alpha <= 0 || math.IsNaN(p.Alpha) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHillConsistentWithLLCD(t *testing.T) {
	// The paper's cross-validation: on well-behaved data the two
	// estimators agree (Tables 2-4 show close alpha_Hill and alpha_LLCD).
	x := paretoSample(t, 1.67, 1, 30000, 7)
	hill, err := EstimateHill(x, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	llcd, err := EstimateLLCDAuto(x)
	if err != nil {
		t.Fatal(err)
	}
	if !hill.Stable {
		t.Fatal("Hill should stabilize")
	}
	if math.Abs(hill.Alpha-llcd.Alpha) > 0.25 {
		t.Errorf("Hill %v vs LLCD %v disagree", hill.Alpha, llcd.Alpha)
	}
}

// refHillPlot is the full reverse-sort HillPlot replaced: sort the
// whole sample descending and log every order statistic. It is the
// oracle the tail-only plot must match bit for bit.
func refHillPlot(x []float64, kMax int) []HillPoint {
	n := len(x)
	if kMax > n-1 {
		kMax = n - 1
	}
	desc := append([]float64(nil), x...)
	sort.Sort(sort.Reverse(sort.Float64Slice(desc)))
	logs := make([]float64, n)
	for i, v := range desc {
		logs[i] = math.Log(v)
	}
	var out []HillPoint
	sumLog := 0.0
	for k := 1; k <= kMax; k++ {
		sumLog += logs[k-1]
		if h := sumLog/float64(k) - logs[k]; h > 0 {
			out = append(out, HillPoint{K: k, Alpha: 1 / h})
		}
	}
	return out
}

// TestHillPlotMatchesFullSortOracle: on random positive samples —
// heavy ties, magnitudes from 1e-9 to 1e12, every kMax regime — the
// tail-only plot returns the reference's points bit for bit.
func TestHillPlotMatchesFullSortOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(3000)
		pool := make([]float64, 1+rng.Intn(5))
		for i := range pool {
			pool[i] = math.Pow(10, -9+21*rng.Float64())
		}
		x := make([]float64, n)
		for i := range x {
			if rng.Intn(3) == 0 {
				x[i] = pool[rng.Intn(len(pool))]
			} else {
				x[i] = math.Pow(10, -9+21*rng.Float64())
			}
		}
		kMax := 2 + rng.Intn(n+5) // sometimes past n-1, exercising the cap
		want := refHillPlot(x, kMax)
		got, err := HillPlot(x, kMax)
		if len(want) == 0 {
			if !errors.Is(err, ErrTooFewTail) {
				t.Fatalf("trial %d: degenerate tail gave %v", trial, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d points, reference %d", trial, len(got), len(want))
		}
		for i := range want {
			if got[i].K != want[i].K || math.Float64bits(got[i].Alpha) != math.Float64bits(want[i].Alpha) {
				t.Fatalf("trial %d point %d: got %+v, reference %+v", trial, i, got[i], want[i])
			}
		}
	}
}
