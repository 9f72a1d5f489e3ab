package heavytail

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

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

// TestMergeReservoirsUnderCapacityExact: while the union fits the
// capacity the merge is the exact concatenation — as a multiset it is
// identical to the unsplit stream however the stream was partitioned,
// and the represented count is the sum.
func TestMergeReservoirsUnderCapacityExact(t *testing.T) {
	const capacity = 64
	rng := rand.New(rand.NewSource(43))
	x := make([]float64, capacity-3)
	for i := range x {
		x[i] = rng.ExpFloat64()
	}
	whole := append([]float64(nil), x...)
	sort.Float64s(whole)
	for trial := 0; trial < 20; trial++ {
		parts := make([]*Reservoir, 3)
		var err error
		for i := range parts {
			if parts[i], err = NewReservoir(capacity, int64(100+i)); err != nil {
				t.Fatal(err)
			}
		}
		for _, v := range x {
			parts[rng.Intn(len(parts))].Observe(v)
		}
		merged, err := MergeReservoirs(7, parts...)
		if err != nil {
			t.Fatal(err)
		}
		if merged.Seen() != int64(len(x)) {
			t.Fatalf("trial %d: merged seen %d, want %d", trial, merged.Seen(), len(x))
		}
		got := merged.Sample()
		if len(got) != len(x) {
			t.Fatalf("trial %d: merged holds %d of %d", trial, len(got), len(x))
		}
		sort.Float64s(got)
		if !reflect.DeepEqual(got, whole) {
			t.Fatalf("trial %d: merged multiset differs from the unsplit stream", trial)
		}
	}
}

// TestMergeReservoirsOverCapacity: past capacity the weighted draw is
// deterministic given the seed, fills the capacity exactly, draws only
// items present in the parts, and leaves the parts untouched.
func TestMergeReservoirsOverCapacity(t *testing.T) {
	const capacity = 32
	rng := rand.New(rand.NewSource(47))
	parts := make([]*Reservoir, 4)
	present := map[float64]bool{}
	var totalSeen int64
	var err error
	for i := range parts {
		if parts[i], err = NewReservoir(capacity, int64(i)); err != nil {
			t.Fatal(err)
		}
		n := 10 + 40*i // mixed under- and over-capacity parts
		for j := 0; j < n; j++ {
			v := rng.Float64()
			parts[i].Observe(v)
		}
		totalSeen += int64(n)
		for _, v := range parts[i].Sample() {
			present[v] = true
		}
	}
	before := make([][]float64, len(parts))
	for i, p := range parts {
		before[i] = p.Sample()
	}
	m1, err := MergeReservoirs(99, parts...)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := MergeReservoirs(99, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m1.Sample(), m2.Sample()) {
		t.Fatal("same seed, same parts: merges differ")
	}
	if m1.Len() != capacity {
		t.Fatalf("merged sample size %d, want %d", m1.Len(), capacity)
	}
	if m1.Seen() != totalSeen {
		t.Fatalf("merged seen %d, want %d", m1.Seen(), totalSeen)
	}
	for _, v := range m1.Sample() {
		if !present[v] {
			t.Fatalf("merged sample contains %v, absent from every part", v)
		}
	}
	for i, p := range parts {
		if !reflect.DeepEqual(p.Sample(), before[i]) {
			t.Fatalf("part %d mutated by merge", i)
		}
	}
	m3, err := MergeReservoirs(100, parts...)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(m1.Sample(), m3.Sample()) {
		t.Fatal("different seeds produced the identical over-capacity draw (suspicious)")
	}
}

// TestMergeReservoirsErrors: empty part lists and capacity mismatches
// are rejected.
func TestMergeReservoirsErrors(t *testing.T) {
	if _, err := MergeReservoirs(1); err == nil {
		t.Error("zero parts accepted")
	}
	a, _ := NewReservoir(16, 1)
	b, _ := NewReservoir(32, 1)
	if _, err := MergeReservoirs(1, a, b); err == nil {
		t.Error("capacity mismatch accepted")
	}
}

// TestMergeOnlineHillsExactUnderCapacity: with every part's stream
// inside its reservoir the merged estimator sees the exact union, so
// its estimate equals the batch estimate on the concatenated data.
func TestMergeOnlineHillsExactUnderCapacity(t *testing.T) {
	const capacity = 4096
	rng := rand.New(rand.NewSource(53))
	x := make([]float64, 3000)
	for i := range x {
		// Pareto(alpha=1.5) — comfortably in Hill's wheelhouse.
		x[i] = pareto(rng, 1.5)
	}
	parts := make([]*OnlineHill, 3)
	var err error
	for i := range parts {
		if parts[i], err = NewOnlineHill(capacity, int64(i), DefaultHillTailFraction, DefaultHillRelTol); err != nil {
			t.Fatal(err)
		}
	}
	for _, v := range x {
		parts[rng.Intn(len(parts))].Observe(v)
	}
	merged, err := MergeOnlineHills(7, parts...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := merged.Estimate()
	if err != nil {
		t.Fatal(err)
	}
	want, err := EstimateHill(x, DefaultHillTailFraction, DefaultHillRelTol)
	if err != nil {
		t.Fatal(err)
	}
	// Same multiset; EstimateHill sorts internally, so the read-off is
	// order-free and the agreement exact.
	if got.Alpha != want.Alpha || got.Stable != want.Stable {
		t.Fatalf("merged Hill (alpha=%v stable=%v) != batch (alpha=%v stable=%v)",
			got.Alpha, got.Stable, want.Alpha, want.Stable)
	}
}

// TestMergeOnlineHillsParamMismatch: read-off parameters must agree.
func TestMergeOnlineHillsParamMismatch(t *testing.T) {
	a, err := NewOnlineHill(64, 1, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewOnlineHill(64, 1, 0.2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := MergeOnlineHills(1, a, b); err == nil {
		t.Error("tail-fraction mismatch accepted")
	}
	if _, err := MergeOnlineHills(1); err == nil {
		t.Error("zero parts accepted")
	}
}

// pareto draws one Pareto(alpha) variate with x_m = 1.
func pareto(rng *rand.Rand, alpha float64) float64 {
	u := rng.Float64()
	for u == 0 {
		u = rng.Float64()
	}
	return 1 / math.Pow(u, 1/alpha)
}
