package heavytail

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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

// checkPlotAgainstOracle runs HillPlot on x and requires the
// reference's points bit for bit (or ErrTooFewTail where the reference
// plot is empty), and x left exactly as it was.
func checkPlotAgainstOracle(t *testing.T, label string, x []float64, kMax int) {
	t.Helper()
	before := slices.Clone(x)
	want := refHillPlot(x, kMax)
	got, err := HillPlot(x, kMax)
	if !slices.Equal(x, before) {
		t.Fatalf("%s: HillPlot modified its input", label)
	}
	if len(want) == 0 {
		if !errors.Is(err, ErrTooFewTail) {
			t.Fatalf("%s: degenerate tail gave %v", label, err)
		}
		return
	}
	if err != nil {
		t.Fatalf("%s: %v", label, err)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d points, reference %d", label, len(got), len(want))
	}
	for i := range want {
		if got[i].K != want[i].K || math.Float64bits(got[i].Alpha) != math.Float64bits(want[i].Alpha) {
			t.Fatalf("%s point %d: got %+v, reference %+v", label, i, got[i], want[i])
		}
	}
}

// TestHillPlotMatchesFullSortOracle: on random positive samples —
// heavy ties, magnitudes from 1e-9 to 1e12, every kMax regime — the
// selected-tail plot returns the reference's points bit for bit, as it
// does on the selection's edge cases: ties straddling the selection
// boundary, an all-equal top, kMax = n-1, and sorted, reversed and
// organ-pipe inputs.
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
		checkPlotAgainstOracle(t, fmt.Sprintf("trial %d", trial), x, kMax)
	}
	for _, n := range []int{3, 4, 17, 500, 2048} {
		kMax := max(2, n/7)
		// A run of equal values covering order statistics kMax-2 ..
		// kMax+3 straddles the boundary the selection cuts at.
		straddle := make([]float64, n)
		for i := range straddle {
			straddle[i] = 1 + rng.Float64()
		}
		for i := max(0, n-kMax-4); i < n-kMax+3 && i < n; i++ {
			straddle[i] = 5
		}
		for i := n - kMax + 3; i < n; i++ {
			straddle[i] = 10 + rng.Float64()
		}
		rng.Shuffle(n, func(i, j int) { straddle[i], straddle[j] = straddle[j], straddle[i] })
		// The kMax+1 largest all equal: no plot point exists. With only
		// half the top equal, the later points still do.
		flat := make([]float64, n)
		half := make([]float64, n)
		for i := range flat {
			flat[i] = 1 + rng.Float64()
			half[i] = flat[i]
		}
		for i := n - kMax - 1; i < n; i++ {
			flat[i] = 7
		}
		for i := n - (kMax+1)/2; i < n; i++ {
			half[i] = 7
		}
		rng.Shuffle(n, func(i, j int) { flat[i], flat[j] = flat[j], flat[i] })
		rng.Shuffle(n, func(i, j int) { half[i], half[j] = half[j], half[i] })
		sorted := make([]float64, n)
		for i := range sorted {
			sorted[i] = 1 + float64(i)*rng.Float64()
		}
		slices.Sort(sorted)
		reversed := slices.Clone(sorted)
		slices.Reverse(reversed)
		organ := make([]float64, n)
		for i := range organ {
			organ[i] = float64(1 + min(i, n-1-i))
		}
		for _, c := range []struct {
			name string
			x    []float64
		}{
			{"straddling ties", straddle}, {"all-equal top", flat}, {"half-equal top", half},
			{"sorted", sorted}, {"reversed", reversed}, {"organ pipe", organ},
		} {
			checkPlotAgainstOracle(t, fmt.Sprintf("%s n=%d kMax=%d", c.name, n, kMax), c.x, kMax)
			checkPlotAgainstOracle(t, fmt.Sprintf("%s n=%d kMax=n-1", c.name, n), c.x, n-1)
		}
	}
}

// TestSelectUpperDepthFallback: at every depth budget — 0 sorts the
// whole range at once, small budgets run out partway — the selection
// leaves the k-th smallest value at k with nothing smaller after it and
// nothing larger before it, on sorted, reversed, organ-pipe, all-equal
// and random inputs.
func TestSelectUpperDepthFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(37))
	for _, n := range []int{1, 2, 3, 10, 257, 1000} {
		inputs := map[string][]float64{
			"sorted":    make([]float64, n),
			"reversed":  make([]float64, n),
			"organ":     make([]float64, n),
			"all equal": make([]float64, n),
			"random":    make([]float64, n),
		}
		for i := 0; i < n; i++ {
			inputs["sorted"][i] = float64(i)
			inputs["reversed"][i] = float64(n - i)
			inputs["organ"][i] = float64(min(i, n-1-i))
			inputs["all equal"][i] = 3
			inputs["random"][i] = float64(rng.Intn(n/2 + 1))
		}
		for name, in := range inputs {
			want := slices.Clone(in)
			slices.Sort(want)
			for _, k := range []int{0, n / 3, n - 1 - n/7, n - 1} {
				for depth := 0; depth <= 4; depth++ {
					a := slices.Clone(in)
					selectUpper(a, k, depth)
					if a[k] != want[k] {
						t.Fatalf("%s n=%d k=%d depth=%d: a[k] = %v, want %v", name, n, k, depth, a[k], want[k])
					}
					for i, v := range a {
						if (i < k && v > a[k]) || (i > k && v < a[k]) {
							t.Fatalf("%s n=%d k=%d depth=%d: a[%d] = %v on the wrong side of %v", name, n, k, depth, i, v, a[k])
						}
					}
				}
			}
		}
	}
}
