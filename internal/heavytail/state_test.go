package heavytail

import (
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestReservoirRestoreBitExact: checkpoint a reservoir mid-stream well
// past capacity, restore (with its PCG state), feed the identical tail,
// and require the sample path to be bit-for-bit the uninterrupted one.
func TestReservoirRestoreBitExact(t *testing.T) {
	orig, err := NewReservoir(32, 42)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) float64 { return float64((i*i)%997) + 0.5 }
	for i := 0; i < 500; i++ {
		orig.Observe(val(i))
	}
	restored, err := RestoreReservoir(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	for i := 500; i < 1500; i++ {
		orig.Observe(val(i))
		restored.Observe(val(i))
	}
	if orig.Seen() != restored.Seen() {
		t.Fatalf("seen %d vs %d", orig.Seen(), restored.Seen())
	}
	if !reflect.DeepEqual(orig.Sample(), restored.Sample()) {
		t.Fatalf("samples diverged after restore:\norig     %v\nrestored %v", orig.Sample(), restored.Sample())
	}
}

func TestReservoirRestoreRejectsBadState(t *testing.T) {
	if _, err := RestoreReservoir(ReservoirState{Cap: 0}); err == nil {
		t.Fatal("zero capacity accepted")
	}
	if _, err := RestoreReservoir(ReservoirState{Cap: 4, Seen: 10, Items: []float64{1}}); err == nil {
		t.Fatal("item/seen mismatch accepted")
	}
}

func TestOnlineHillRestore(t *testing.T) {
	orig, err := NewOnlineHill(64, 7, 0.1, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	val := func(i int) float64 { return float64((i*31)%211) - 3 } // mixes non-positive values in
	for i := 0; i < 400; i++ {
		orig.Observe(val(i))
	}
	restored, err := RestoreOnlineHill(orig.State())
	if err != nil {
		t.Fatal(err)
	}
	if restored.Seen() != orig.Seen() || restored.SampleLen() != orig.SampleLen() || restored.dropped != orig.dropped {
		t.Fatalf("counters diverged: seen %d/%d len %d/%d dropped %d/%d",
			orig.Seen(), restored.Seen(), orig.SampleLen(), restored.SampleLen(), orig.dropped, restored.dropped)
	}
	for i := 400; i < 900; i++ {
		orig.Observe(val(i))
		restored.Observe(val(i))
	}
	if !reflect.DeepEqual(orig.res.Sample(), restored.res.Sample()) {
		t.Fatal("reservoir samples diverged after restore")
	}
}

// TestReservoirRestoreHugeSeen: restore cost does not depend on the
// observation count. A state claiming 2^62 observations — which an
// RNG replay would take centuries to reach — restores at once and
// keeps sampling.
func TestReservoirRestoreHugeSeen(t *testing.T) {
	orig, err := NewReservoir(16, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ {
		orig.Observe(float64(i + 1))
	}
	st := orig.State()
	st.Seen = 1 << 62
	start := time.Now()
	r, err := RestoreReservoir(st)
	if err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took > 100*time.Millisecond {
		t.Fatalf("restoring 2^62 observations took %v", took)
	}
	r.Observe(99)
	if r.Seen() != 1<<62+1 || r.Len() != 16 {
		t.Fatalf("restored reservoir: seen %d len %d", r.Seen(), r.Len())
	}
}

// TestReservoirRestoreRejectsBadRNG: a generator state PCG does not
// accept is refused, not replaced by a fresh generator.
func TestReservoirRestoreRejectsBadRNG(t *testing.T) {
	orig, err := NewReservoir(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := orig.State()
	for name, rng := range map[string][]byte{
		"missing":   nil,
		"truncated": good.RNG[:len(good.RNG)-1],
		"extended":  append(append([]byte(nil), good.RNG...), 0),
		"bad tag":   append([]byte("xyz:"), good.RNG[4:]...),
	} {
		st := good
		st.RNG = rng
		if _, err := RestoreReservoir(st); err == nil || !strings.Contains(err.Error(), "RNG state") {
			t.Errorf("%s RNG state: %v", name, err)
		}
	}
}
