package stream

import (
	"math"
	"reflect"
	"testing"
)

// FuzzSketchReadOffs drives a quantile sketch with an arbitrary
// interleaving of observations and read-offs. Each input byte either
// asks for a read-off (0xf0 and up), checked bit for bit against the
// sort-everything reference, or observes a positive value spread over
// sixteen binary orders of magnitude with heavy ties. A twin that sees
// the same observations but is never read must end with the same
// checkpoint state and the same read-off.
func FuzzSketchReadOffs(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0xf0, 3, 4, 0xff})
	f.Add([]byte("\x05the quick brown fox\xf3 jumps over\xf9 the lazy dog\xff"))
	seq := make([]byte, 300)
	for i := range seq {
		seq[i] = byte(i * 37)
	}
	f.Add(seq)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		capacity := MinQuantileCap + 2*int(data[0]%8)
		read, err := NewQuantileSketch(capacity)
		if err != nil {
			t.Fatal(err)
		}
		never, err := NewQuantileSketch(capacity)
		if err != nil {
			t.Fatal(err)
		}
		ps := []float64{0, 0.25, 0.5, 0.9, 0.99, 1}
		for _, b := range data[1:] {
			if b >= 0xf0 {
				readOffMatchesOracle(t, read, ps)
				continue
			}
			v := math.Ldexp(float64(b&0x0f+1), int(b>>4)-8)
			read.Observe(v)
			never.Observe(v)
		}
		if !reflect.DeepEqual(read.State(), never.State()) {
			t.Fatal("read-offs changed the sketch state")
		}
		readOffMatchesOracle(t, read, ps)
		readOffMatchesOracle(t, never, ps)
	})
}

// readOffMatchesOracle requires every read-off of s to carry the bits
// of refQuantile.
func readOffMatchesOracle(t *testing.T, s *QuantileSketch, ps []float64) {
	t.Helper()
	for i, got := range s.Quantiles(ps...) {
		if want := refQuantile(s, ps[i]); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("n=%d p=%v: read-off %v, reference %v", s.N(), ps[i], got, want)
		}
	}
}
