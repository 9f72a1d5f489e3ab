package stream

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"fullweb/internal/stats"
)

// TestQuantileSketchExactUnderCapacity: before the first compaction
// (fewer than 2×capacity observations) every quantile must match
// stats.Quantile bit for bit — the regime the engine's equivalence
// contract relies on.
func TestQuantileSketchExactUnderCapacity(t *testing.T) {
	const capacity = 32
	rng := rand.New(rand.NewSource(3))
	s, err := NewQuantileSketch(capacity)
	if err != nil {
		t.Fatal(err)
	}
	var x []float64
	for i := 0; i < 2*capacity-1; i++ {
		v := math.Exp(rng.NormFloat64())
		s.Observe(v)
		x = append(x, v)
		for _, p := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			want, err := stats.Quantile(x, p)
			if err != nil {
				t.Fatal(err)
			}
			if got := s.Quantile(p); got != want {
				t.Fatalf("n=%d p=%v: sketch %v, batch %v", len(x), p, got, want)
			}
		}
	}
	if s.N() != int64(len(x)) {
		t.Fatalf("N = %d, want %d", s.N(), len(x))
	}
}

// TestQuantileSketchToleranceOverCapacity: far past capacity the rank
// error must stay small. On uniform [0,1) data the p-quantile is ~p, so
// a value error bounds the rank error directly.
func TestQuantileSketchToleranceOverCapacity(t *testing.T) {
	const capacity = 256
	rng := rand.New(rand.NewSource(7))
	s, err := NewQuantileSketch(capacity)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100000; i++ {
		s.Observe(rng.Float64())
	}
	for _, p := range []float64{0.1, 0.5, 0.9, 0.99} {
		if got := s.Quantile(p); math.Abs(got-p) > 0.05 {
			t.Errorf("p=%v: sketch %v (rank error %v)", p, got, math.Abs(got-p))
		}
	}
}

// TestQuantileSketchStateRoundTrip: a restored sketch is
// state-identical to the live one and stays identical as both keep
// observing the same stream.
func TestQuantileSketchStateRoundTrip(t *testing.T) {
	s, err := NewQuantileSketch(64)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 10000; i++ {
		s.Observe(rng.ExpFloat64())
	}
	r, err := RestoreQuantileSketch(s.State())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.State(), r.State()) {
		t.Fatal("restored state differs")
	}
	for i := 0; i < 1000; i++ {
		v := rng.ExpFloat64()
		s.Observe(v)
		r.Observe(v)
	}
	if !reflect.DeepEqual(s.State(), r.State()) {
		t.Fatal("restored sketch diverged after further observations")
	}
}

// TestQuantileSketchRestoreValidation: structurally corrupt states are
// rejected, never trusted.
func TestQuantileSketchRestoreValidation(t *testing.T) {
	s, err := NewQuantileSketch(16)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 100; i++ {
		s.Observe(rng.Float64())
	}
	good := s.State()
	firstFull := -1
	for h, lvl := range good.Levels {
		if lvl != nil {
			firstFull = h
			break
		}
	}
	if firstFull < 0 {
		t.Fatal("no full level to corrupt; feed more observations")
	}
	mutate := func(name string, f func(*QuantileSketchState)) {
		st := good
		st.Buf = append([]float64(nil), good.Buf...)
		st.Levels = nil
		for _, lvl := range good.Levels {
			st.Levels = append(st.Levels, append([]float64(nil), lvl...))
		}
		st.Flips = append([]bool(nil), good.Flips...)
		f(&st)
		if _, err := RestoreQuantileSketch(st); err == nil {
			t.Errorf("%s: corrupt state accepted", name)
		}
	}
	mutate("overfull buffer", func(st *QuantileSketchState) {
		for len(st.Buf) < st.Cap {
			st.Buf = append(st.Buf, 1)
		}
		st.N = 1000
	})
	mutate("flips mismatch", func(st *QuantileSketchState) { st.Flips = append(st.Flips, true) })
	mutate("short level", func(st *QuantileSketchState) { st.Levels[firstFull] = st.Levels[firstFull][:4] })
	mutate("unsorted level", func(st *QuantileSketchState) {
		lvl := st.Levels[firstFull]
		lvl[0], lvl[1] = lvl[len(lvl)-1], lvl[0]
	})
	mutate("weight mismatch", func(st *QuantileSketchState) { st.N += 3 })
	mutate("bad capacity", func(st *QuantileSketchState) { st.Cap = 7 })
	if _, err := RestoreQuantileSketch(good); err != nil {
		t.Fatalf("pristine state rejected: %v", err)
	}
}

// TestQuantileSketchConfigAndEdgeCases: constructor validation and the
// empty/invalid-p read-offs.
func TestQuantileSketchConfigAndEdgeCases(t *testing.T) {
	if _, err := NewQuantileSketch(8); err == nil {
		t.Error("capacity below minimum accepted")
	}
	if _, err := NewQuantileSketch(17); err == nil {
		t.Error("odd capacity accepted")
	}
	s, err := NewQuantileSketch(16)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsNaN(s.Quantile(0.5)) {
		t.Error("empty sketch did not return NaN")
	}
	s.Observe(4)
	for _, p := range []float64{-0.1, 1.1, math.NaN()} {
		if !math.IsNaN(s.Quantile(p)) {
			t.Errorf("invalid p=%v accepted", p)
		}
	}
	if got := s.Quantile(0.5); got != 4 {
		t.Errorf("single observation quantile = %v", got)
	}
}

// refQuantile is the sort-everything read-off Quantile replaced: expand
// every sketch point with its weight, sort all of them, and walk the
// cumulative weight to each rank. It is the oracle the merge-walk
// read-off must match bit for bit.
func refQuantile(s *QuantileSketch, p float64) float64 {
	if s.n == 0 || math.IsNaN(p) || p < 0 || p > 1 {
		return math.NaN()
	}
	type weighted struct {
		v float64
		w int64
	}
	var pts []weighted
	for _, v := range s.buf {
		pts = append(pts, weighted{v, 1})
	}
	for h, lvl := range s.levels {
		for _, v := range lvl {
			pts = append(pts, weighted{v, int64(1) << uint(h)})
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].v < pts[j].v })
	rankValue := func(r int64) float64 {
		var cum int64
		for _, pt := range pts {
			cum += pt.w
			if r < cum {
				return pt.v
			}
		}
		return pts[len(pts)-1].v
	}
	h := p * float64(s.n-1)
	lo := int64(math.Floor(h))
	vLo := rankValue(lo)
	if lo+1 >= s.n {
		return vLo
	}
	frac := h - float64(lo)
	if frac == 0 {
		return vLo
	}
	return vLo*(1-frac) + rankValue(lo+1)*frac
}

// oracleValue draws one sketch input: heavy ties (a small pool of
// repeated values), zeros of the given signs, and magnitudes from 1e-9
// to 1e12.
func oracleValue(rng *rand.Rand, pool, zeros []float64) float64 {
	switch r := rng.Intn(10); {
	case r < 4:
		return pool[rng.Intn(len(pool))]
	case r == 4:
		return zeros[rng.Intn(len(zeros))]
	default:
		v := math.Pow(10, -9+21*rng.Float64())
		if rng.Intn(8) == 0 {
			v = -v
		}
		return v
	}
}

// checkAgainstOracle compares Quantile, and Quantiles asked for every p
// at once, with refQuantile. With mixedZeros set the sketch holds both
// -0 and +0: they compare equal, so which one an unstable sort puts at
// a rank is unspecified, and a zero result is checked by value only.
// Every other result must match bit for bit.
func checkAgainstOracle(t *testing.T, label string, s *QuantileSketch, ps []float64, mixedZeros bool) {
	t.Helper()
	all := s.Quantiles(ps...)
	for i, p := range ps {
		want := refQuantile(s, p)
		for _, got := range []float64{s.Quantile(p), all[i]} {
			if mixedZeros && got == 0 && want == 0 {
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("%s n=%d p=%v: read-off %v (%#x), reference %v (%#x)",
					label, s.N(), p, got, math.Float64bits(got), want, math.Float64bits(want))
			}
		}
	}
}

// TestQuantilesMatchSortEverythingOracle: the merge-walk read-off must
// return exactly the bits the sort-everything reference does on
// sequentially fed sketches through several compactions. A third of
// the trials feed only +0, a third only -0 (so the sign of a zero
// result is checked too) and a third both.
func TestQuantilesMatchSortEverythingOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	// Out-of-range asks ride along: they read NaN without disturbing
	// the others.
	fixed := []float64{0, 0.5, 0.9, 0.99, 1, -0.5, 1.5, math.NaN()}
	for trial := 0; trial < 200; trial++ {
		capacity := 16 + 2*rng.Intn(25) // even, 16..64
		pool := make([]float64, 1+rng.Intn(6))
		for i := range pool {
			pool[i] = math.Pow(10, -9+21*rng.Float64())
		}
		zeros := [][]float64{{0}, {math.Copysign(0, -1)}, {0, math.Copysign(0, -1)}}[trial%3]
		mixed := len(zeros) == 2
		ps := append([]float64(nil), fixed...)
		for i := 0; i < 5; i++ {
			ps = append(ps, rng.Float64())
		}
		s, err := NewQuantileSketch(capacity)
		if err != nil {
			t.Fatal(err)
		}
		n := 1 + rng.Intn(50*capacity)
		for i := 0; i < n; i++ {
			s.Observe(oracleValue(rng, pool, zeros))
			if i%(1+n/7) == 0 {
				checkAgainstOracle(t, "fed", s, ps, mixed)
			}
		}
		checkAgainstOracle(t, "fed", s, ps, mixed)
	}
}
