package lrd

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/fgn"
	"fullweb/internal/stats"
	"fullweb/internal/timeseries"
)

// TestOnlineAggVarLevelVariancesExact checks the core bookkeeping: after
// n observations, each dyadic level holds exactly the population
// variance of the m-aggregated series over its complete blocks — the
// same quantity the batch path computes with timeseries.Aggregate.
func TestOnlineAggVarLevelVariancesExact(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := 4096
	x := make([]float64, n)
	for i := range x {
		x[i] = rng.ExpFloat64() * 10
	}
	o, err := NewOnlineAggVar(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		o.Add(v)
	}
	if o.N() != int64(n) {
		t.Fatalf("N = %d, want %d", o.N(), n)
	}
	for j := 0; j < 8; j++ {
		m := 1 << j
		agg, err := timeseries.Aggregate(x, m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := stats.PopulationVariance(agg)
		if err != nil {
			t.Fatal(err)
		}
		l := o.levels[j]
		if l.blocks != int64(len(agg)) {
			t.Fatalf("level %d has %d blocks, want %d", j, l.blocks, len(agg))
		}
		got := l.m2 / float64(l.blocks)
		if math.Abs(got-want) > 1e-9*math.Max(1, want) {
			t.Errorf("level %d variance %v, want %v", j, got, want)
		}
	}
}

// TestOnlineAggVarWhiteNoise: iid data has H = 0.5; the streaming
// estimator must land close to it.
func TestOnlineAggVarWhiteNoise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1<<14; i++ {
		o.Add(rng.NormFloat64())
	}
	est, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if est.Method != AggregatedVariance {
		t.Errorf("method %v", est.Method)
	}
	if est.HasCI {
		t.Error("HasCI should be false, matching the batch estimator")
	}
	if math.Abs(est.H-0.5) > 0.08 {
		t.Errorf("white-noise H = %v, want ~0.5", est.H)
	}
}

// TestOnlineAggVarMatchesBatchOnFGN is the tolerance contract of
// DESIGN.md §10: on a long-range dependent series the streaming dyadic
// estimate agrees with the batch log-spaced-grid estimate within
// |ΔH| <= 0.1, and both sit near the planted H.
func TestOnlineAggVarMatchesBatchOnFGN(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	x, err := fgn.Generate(rng, 0.8, 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := EstimateAggregatedVariance(x)
	if err != nil {
		t.Fatal(err)
	}
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		o.Add(v)
	}
	online, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(online.H - batch.H); d > 0.1 {
		t.Errorf("streaming H %v vs batch %v: |ΔH| = %v > 0.1", online.H, batch.H, d)
	}
	if math.Abs(online.H-0.8) > 0.15 {
		t.Errorf("streaming H %v too far from planted 0.8", online.H)
	}
}

// TestOnlineAggVarEstimateIsRepeatable: Estimate must not mutate state,
// so calling it at every snapshot is safe.
func TestOnlineAggVarEstimateIsRepeatable(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	o, _ := NewOnlineAggVar(0)
	for i := 0; i < 2048; i++ {
		o.Add(rng.Float64())
	}
	a, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("repeated Estimate differs: %+v vs %+v", a, b)
	}
	// And keeps accepting data afterwards.
	o.Add(1)
	if o.N() != 2049 {
		t.Errorf("N after post-estimate Add = %d", o.N())
	}
}

func TestOnlineAggVarErrors(t *testing.T) {
	if _, err := NewOnlineAggVar(41); !errors.Is(err, ErrBadParam) {
		t.Errorf("41 levels accepted: %v", err)
	}
	o, err := NewOnlineAggVar(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(o.levels) != DefaultAggVarLevels {
		t.Errorf("default levels = %d", len(o.levels))
	}
	// Too few observations for three usable levels.
	for i := 0; i < 40; i++ {
		o.Add(float64(i % 3))
	}
	if _, err := o.Estimate(); !errors.Is(err, ErrTooShort) {
		t.Errorf("want ErrTooShort on short stream, got %v", err)
	}
	// A constant series has zero variance at every level: degenerate.
	c, _ := NewOnlineAggVar(0)
	for i := 0; i < 1024; i++ {
		c.Add(5)
	}
	if _, err := c.Estimate(); err == nil {
		t.Error("constant series produced an estimate")
	}
}

func TestOnlineAggVarLevelsCounter(t *testing.T) {
	o, _ := NewOnlineAggVar(6)
	if o.Levels() != 0 {
		t.Fatalf("fresh estimator reports %d levels", o.Levels())
	}
	rng := rand.New(rand.NewSource(2))
	// 32 blocks at width 4 need 128 observations; width 8 needs 256.
	for i := 0; i < 128; i++ {
		o.Add(rng.Float64())
	}
	if got := o.Levels(); got != 3 {
		t.Errorf("after 128 observations Levels = %d, want 3 (m=1,2,4)", got)
	}
	for i := 0; i < 128; i++ {
		o.Add(rng.Float64())
	}
	if got := o.Levels(); got != 4 {
		t.Errorf("after 256 observations Levels = %d, want 4", got)
	}
}

// TestOnlineAggVarAddZerosBitIdentical is the contract AddZeros ships
// under: any interleaving of Add and AddZeros must leave every level's
// full state — partial, filled, blocks, mean, m2 — bit-for-bit equal to
// the same run with AddZeros(k) spelled as k sequential Add(0) calls.
// The engine's published Hurst bytes ride on this equivalence.
func TestOnlineAggVarAddZerosBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 50; trial++ {
		fast, err := NewOnlineAggVar(10)
		if err != nil {
			t.Fatal(err)
		}
		slow, err := NewOnlineAggVar(10)
		if err != nil {
			t.Fatal(err)
		}
		for step := 0; step < 40; step++ {
			if rng.Intn(2) == 0 {
				v := rng.ExpFloat64() * 20
				fast.Add(v)
				slow.Add(v)
				continue
			}
			// Gap lengths spanning sub-block to many-block at every
			// level, including the zero-length no-op.
			k := rng.Int63n(1 << uint(rng.Intn(13)))
			fast.AddZeros(k)
			for i := int64(0); i < k; i++ {
				slow.Add(0)
			}
		}
		if fast.n != slow.n {
			t.Fatalf("trial %d: n = %d, want %d", trial, fast.n, slow.n)
		}
		for j := range fast.levels {
			f, s := fast.levels[j], slow.levels[j]
			if f != s {
				t.Fatalf("trial %d level %d: AddZeros state %+v, sequential Add(0) state %+v", trial, j, f, s)
			}
		}
	}
}

// TestOnlineAggVarEstimateShortStream: levels with fewer than two
// complete blocks must never reach the regression — a one-block level
// has identically zero variance and its log would poison the fit. On a
// stream short enough that only degenerate levels exist the estimator
// reports ErrTooShort instead of emitting garbage.
func TestOnlineAggVarEstimateShortStream(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 2, 3, 33, 65} {
		o, err := NewOnlineAggVar(6)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			o.Add(rng.Float64())
		}
		if _, err := o.Estimate(); !errors.Is(err, ErrTooShort) {
			t.Fatalf("n=%d: want ErrTooShort, got %v", n, err)
		}
	}
}
