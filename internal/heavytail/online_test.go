package heavytail

import (
	"errors"
	"math"
	"reflect"
	"sort"
	"testing"
)

func TestReservoirHoldsEverythingUnderCapacity(t *testing.T) {
	r, err := NewReservoir(100, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 80; i++ {
		r.Observe(float64(i))
	}
	if r.Seen() != 80 || r.Len() != 80 {
		t.Fatalf("seen=%d len=%d, want 80/80", r.Seen(), r.Len())
	}
	for i, v := range r.Sample() {
		if v != float64(i) {
			t.Fatalf("sample[%d] = %v: under capacity the reservoir must keep input order", i, v)
		}
	}
}

func TestReservoirDeterministicAndBounded(t *testing.T) {
	build := func(seed int64) []float64 {
		r, err := NewReservoir(64, seed)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 10000; i++ {
			r.Observe(float64(i))
		}
		if r.Len() != 64 {
			t.Fatalf("len = %d past capacity", r.Len())
		}
		if r.Seen() != 10000 {
			t.Fatalf("seen = %d", r.Seen())
		}
		return r.Sample()
	}
	a, b := build(42), build(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
	c := build(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical samples")
	}
}

func TestReservoirSampleIsACopy(t *testing.T) {
	r, _ := NewReservoir(8, 1)
	r.Observe(1)
	s := r.Sample()
	s[0] = 99
	if r.Sample()[0] != 1 {
		t.Error("Sample aliases internal state")
	}
}

// TestOnlineHillExactUnderCapacity is the §10 exactness contract: while
// the stream fits the reservoir, the streaming Hill estimate IS the
// batch estimate — bit for bit, because EstimateHill sorts its input.
func TestOnlineHillExactUnderCapacity(t *testing.T) {
	x := paretoSample(t, 1.3, 1, 2000, 9)
	oh, err := NewOnlineHill(4096, 1, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	// Feed in a different order than the batch slice to prove order
	// independence.
	for i := len(x) - 1; i >= 0; i-- {
		oh.Observe(x[i])
	}
	got, err := oh.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateHill(x, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	if got.Alpha != want.Alpha || got.Stable != want.Stable ||
		got.WindowLow != want.WindowLow || got.WindowHigh != want.WindowHigh {
		t.Fatalf("streaming %+v != batch %+v under capacity", got, want)
	}
}

// TestOnlineHillSampledTolerance: past capacity the reservoir estimate
// must stay within the documented ±0.15 of the batch estimate on a
// clean Pareto tail.
func TestOnlineHillSampledTolerance(t *testing.T) {
	alpha := 1.5
	x := paretoSample(t, alpha, 1, 50000, 17)
	oh, err := NewOnlineHill(4096, 1, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range x {
		oh.Observe(v)
	}
	if oh.SampleLen() != 4096 {
		t.Fatalf("sample len %d, want capacity", oh.SampleLen())
	}
	got, err := oh.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateHill(x, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	if d := math.Abs(got.Alpha - want.Alpha); d > 0.15 {
		t.Errorf("sampled alpha %v vs batch %v: |Δ| = %v > 0.15", got.Alpha, want.Alpha, d)
	}
	if math.Abs(got.Alpha-alpha) > 0.3 {
		t.Errorf("sampled alpha %v too far from planted %v", got.Alpha, alpha)
	}
}

func TestOnlineHillDropsNonPositive(t *testing.T) {
	oh, err := NewOnlineHill(64, 1, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	oh.Observe(-1)
	oh.Observe(0)
	oh.Observe(math.NaN())
	if oh.Seen() != 0 || oh.SampleLen() != 0 {
		t.Fatalf("non-positive values entered the reservoir: seen=%d len=%d", oh.Seen(), oh.SampleLen())
	}
	oh.Observe(2.5)
	if oh.Seen() != 1 || oh.SampleLen() != 1 {
		t.Fatalf("positive value not retained: seen=%d len=%d", oh.Seen(), oh.SampleLen())
	}
}

func TestOnlineHillErrors(t *testing.T) {
	if _, err := NewOnlineHill(0, 1, DefaultHillTailFraction, DefaultHillRelTol); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero capacity accepted: %v", err)
	}
	if _, err := NewOnlineHill(64, 1, 0, DefaultHillRelTol); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero tail fraction accepted: %v", err)
	}
	if _, err := NewOnlineHill(64, 1, 1.5, DefaultHillRelTol); !errors.Is(err, ErrBadParam) {
		t.Errorf("tail fraction > 1 accepted: %v", err)
	}
	if _, err := NewOnlineHill(64, 1, DefaultHillTailFraction, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero tolerance accepted: %v", err)
	}
	oh, err := NewOnlineHill(64, 1, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := oh.Estimate(); err == nil {
		t.Error("empty reservoir produced an estimate")
	}
}

// TestReservoirSampleDefensiveCopy: Sample's contract is a copy —
// mutating the returned slice (as snapshot estimators do when they
// sort it) must not perturb the sketch state behind it.
func TestReservoirSampleDefensiveCopy(t *testing.T) {
	r, err := NewReservoir(8, 1)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		r.Observe(float64(10 - i))
	}
	want := r.Sample()
	got := r.Sample()
	for i := range got {
		got[i] = -999
	}
	sort.Float64s(got)
	if after := r.Sample(); !reflect.DeepEqual(after, want) {
		t.Fatalf("mutating a returned sample changed the reservoir: %v, want %v", after, want)
	}
}

// TestOnlineHillEstimateLeavesStateUntouched: a twin estimated after
// every observation and one never estimated keep bit-equal reservoir
// states, and every later estimate agrees — reading the tail index off
// must not perturb the sample it reads.
func TestOnlineHillEstimateLeavesStateUntouched(t *testing.T) {
	x := paretoSample(t, 1.2, 1, 6000, 41)
	read, err := NewOnlineHill(512, 9, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	never, err := NewOnlineHill(512, 9, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		read.Observe(v)
		never.Observe(v)
		got, gotErr := read.Estimate()
		if i%500 != 499 {
			continue
		}
		if !reflect.DeepEqual(read.State(), never.State()) {
			t.Fatalf("after %d values the estimated twin's state differs", i+1)
		}
		// Estimate from a restored copy, so the never-read twin stays
		// unread.
		cp, err := RestoreOnlineHill(never.State())
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := cp.Estimate()
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d values: estimate %+v (%v), never-read twin %+v (%v)", i+1, got, gotErr, want, wantErr)
		}
	}
}

// TestOnlineHillScratchMatchesBatch: the estimator builds the Hill
// plot's working copy in a scratch it keeps between read-offs. Every
// read-off must still be EstimateHill on the same items, bit for bit,
// leave the sample as it was, and allocate no sample-sized copy — one
// allocation fewer than the batch call, which clones its input.
func TestOnlineHillScratchMatchesBatch(t *testing.T) {
	x := paretoSample(t, 1.4, 1, 5000, 23)
	oh, err := NewOnlineHill(1024, 3, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range x {
		oh.Observe(v)
		if i%250 != 249 {
			continue
		}
		items := oh.res.Sample()
		got, gotErr := oh.Estimate()
		want, wantErr := EstimateHill(items, DefaultHillTailFraction, DefaultHillRelTol)
		if (gotErr == nil) != (wantErr == nil) || !reflect.DeepEqual(got, want) {
			t.Fatalf("after %d values: read-off %+v (%v), batch %+v (%v)", i+1, got, gotErr, want, wantErr)
		}
		if !reflect.DeepEqual(oh.res.items, items) {
			t.Fatalf("after %d values the read-off reordered the sample", i+1)
		}
	}
	items := oh.res.Sample()
	online := testing.AllocsPerRun(5, func() { oh.Estimate() })
	batch := testing.AllocsPerRun(5, func() { EstimateHill(items, DefaultHillTailFraction, DefaultHillRelTol) })
	if online != batch-1 {
		t.Fatalf("a read-off makes %v allocations, the batch estimate %v: want exactly the sample copy fewer", online, batch)
	}
}
