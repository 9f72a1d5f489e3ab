package stream

import (
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/stats"
)

func TestWelfordMatchesBatchStats(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := make([]float64, 5000)
	var w Welford
	for i := range x {
		x[i] = math.Exp(rng.NormFloat64() * 2)
		w.Observe(x[i])
	}
	mean, err := stats.Mean(x)
	if err != nil {
		t.Fatal(err)
	}
	pv, err := stats.PopulationVariance(x)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi, err := stats.MinMax(x)
	if err != nil {
		t.Fatal(err)
	}
	if w.N() != int64(len(x)) {
		t.Fatalf("N = %d", w.N())
	}
	if math.Abs(w.Mean()-mean) > 1e-9*math.Abs(mean) {
		t.Errorf("mean %v vs batch %v", w.Mean(), mean)
	}
	if math.Abs(w.Variance()-pv) > 1e-9*pv {
		t.Errorf("variance %v vs batch %v", w.Variance(), pv)
	}
	if w.Min() != lo || w.Max() != hi {
		t.Errorf("min/max %v/%v vs batch %v/%v", w.Min(), w.Max(), lo, hi)
	}
	if math.Abs(w.StdDev()-math.Sqrt(pv)) > 1e-9*math.Sqrt(pv) {
		t.Errorf("stddev %v", w.StdDev())
	}
}

func TestWelfordZeroValue(t *testing.T) {
	var w Welford
	if w.N() != 0 || w.Mean() != 0 || w.Variance() != 0 || w.Min() != 0 || w.Max() != 0 {
		t.Errorf("zero value not zero: %+v", w)
	}
	w.Observe(3)
	if w.Mean() != 3 || w.Min() != 3 || w.Max() != 3 || w.Variance() != 0 {
		t.Errorf("single observation: %+v", w)
	}
}

// TestWelfordEmptyRestoreNormalized: restoring an n==0 state yields the
// zero accumulator regardless of stray min/max/mean fields a hand-built
// or corrupted checkpoint might carry, so a restored engine's first
// observation initializes extremes exactly like a fresh engine's.
func TestWelfordEmptyRestoreNormalized(t *testing.T) {
	got := RestoreWelford(WelfordState{N: 0, Mean: 7, M2: 3, Min: 5, Max: -2})
	if got != (Welford{}) {
		t.Fatalf("empty state restored to %+v, want zero value", got)
	}
	var fresh Welford
	fresh.Observe(42)
	got.Observe(42)
	if got != fresh {
		t.Fatalf("first observation diverged: %+v vs %+v", got, fresh)
	}
	if got.State() != fresh.State() {
		t.Fatalf("serialized state diverged: %+v vs %+v", got.State(), fresh.State())
	}
}
