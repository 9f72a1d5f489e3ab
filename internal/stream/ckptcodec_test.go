package stream

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"fullweb/internal/session"
)

// roundTripFloats encodes fs as one float slice and decodes it back,
// returning the form tag written (or -1 for an empty slice).
func roundTripFloats(t *testing.T, fs []float64) ([]float64, int) {
	t.Helper()
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	e := &ckptCodec{enc: true, w: w}
	e.floats(&fs)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	form := -1
	if len(fs) > 0 {
		_, n := binary.Uvarint(buf.Bytes())
		form = int(buf.Bytes()[n])
	}
	d := &ckptCodec{b: buf.Bytes()}
	var got []float64
	d.floats(&got)
	if d.err != nil || len(d.b) != 0 {
		t.Fatalf("decoding %v: err %v, %d bytes left", fs, d.err, len(d.b))
	}
	return got, form
}

// TestCheckpointFloatsBitExact: every float slice round-trips
// Float64bits-equal, and the compact uvarint form is chosen exactly
// when every value is an integer in [0, 2^53) with the sign bit clear.
func TestCheckpointFloatsBitExact(t *testing.T) {
	specials := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1 << 52, 1<<53 - 1, 1 << 53, 1<<53 + 2, 1e300,
		math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff8000000000001), // quiet NaN, payload 1
		math.Float64frombits(0xfff0000000000001), // negative signaling NaN
		math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		-math.SmallestNonzeroFloat64,
		math.MaxFloat64, 3, 4096,
	}
	cases := [][]float64{nil, {}, {0}, {1, 2, 3}, {1<<53 - 1}, {1 << 53}, {math.Copysign(0, -1)}, {7, 0.25}, specials}
	for _, v := range specials {
		cases = append(cases, []float64{v}, []float64{5, v, 9})
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 300; trial++ {
		fs := make([]float64, rng.Intn(40))
		for i := range fs {
			switch rng.Intn(4) {
			case 0:
				fs[i] = float64(rng.Int63n(1 << 53))
			case 1:
				fs[i] = specials[rng.Intn(len(specials))]
			case 2:
				fs[i] = math.Float64frombits(rng.Uint64())
			default:
				fs[i] = rng.NormFloat64() * 1e6
			}
		}
		cases = append(cases, fs)
	}
	for _, fs := range cases {
		got, form := roundTripFloats(t, fs)
		if len(got) != len(fs) {
			t.Fatalf("%v: decoded %d values", fs, len(got))
		}
		compact := len(fs) > 0
		for i := range fs {
			if math.Float64bits(got[i]) != math.Float64bits(fs[i]) {
				t.Fatalf("value %d: %x decoded as %x", i, math.Float64bits(fs[i]), math.Float64bits(got[i]))
			}
			compact = compact && fs[i] >= 0 && fs[i] < 1<<53 && fs[i] == math.Trunc(fs[i]) && !math.Signbit(fs[i])
		}
		if want := int(floatsFixed); compact {
			if form != int(floatsUvarint) {
				t.Errorf("%v: form %d, want the uvarint form", fs, form)
			}
		} else if len(fs) > 0 && form != want {
			t.Errorf("%v: form %d, want the fixed-width form", fs, form)
		}
	}
}

// resealed frames a payload with a valid v5 header.
func resealed(payload []byte) []byte {
	return append([]byte(checkpointHeader(sha256.Sum256(payload))), payload...)
}

// TestCheckpointHugeLengthsRejected: a crafted length far beyond the
// payload's size, behind a valid checksum, fails decoding before
// anything is allocated for it.
func TestCheckpointHugeLengthsRejected(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.state()
	st.Chars = nil
	var buf bytes.Buffer
	if _, err := encodePayload(&buf, &st); err != nil {
		t.Fatal(err)
	}
	// The characteristic count is the payload's last field, and 0 here.
	payload := buf.Bytes()
	if payload[len(payload)-1] != 0 {
		t.Fatalf("payload does not end in an empty characteristic list: %x", payload[len(payload)-8:])
	}
	crafted := resealed(binary.AppendUvarint(bytes.Clone(payload[:len(payload)-1]), 1<<62))
	grew := allocatedBy(func() { _, err = ReadCheckpoint(bytes.NewReader(crafted)) })
	if err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Fatalf("huge characteristic count accepted: %v", err)
	}
	if grew > 1<<20 {
		t.Errorf("rejecting a huge characteristic count allocated %d bytes", grew)
	}

	huge := binary.AppendUvarint(nil, 1<<40)
	for _, c := range []struct {
		name string
		in   []byte
		read func(d *ckptCodec)
	}{
		{"floats", huge, func(d *ckptCodec) { var fs []float64; d.floats(&fs) }},
		{"fixed floats", append(binary.AppendUvarint(nil, 4), floatsFixed, 1, 2, 3), func(d *ckptCodec) { var fs []float64; d.floats(&fs) }},
		{"string", huge, func(d *ckptCodec) { var s string; d.str(&s) }},
		// Four zero counters and a false bool, then the sample count.
		{"strings", append(make([]byte, 5), huge...), func(d *ckptCodec) { var in IngestStats; d.ingest(&in) }},
		{"sessions", append([]byte{0}, huge...), func(d *ckptCodec) { var ss session.StreamerState; d.streamer(&ss) }},
		{"levels", huge, func(d *ckptCodec) { var st secondState; d.second(&st) }},
	} {
		d := &ckptCodec{b: c.in}
		grew := allocatedBy(func() { c.read(d) })
		if d.err == nil {
			t.Errorf("%s: huge length accepted", c.name)
		}
		if grew > 64<<10 {
			t.Errorf("%s: rejecting a huge length allocated %d bytes", c.name, grew)
		}
	}
}

// allocatedBy returns the bytes the heap allocated while fn ran.
func allocatedBy(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestCheckpointTrailingBytesRejected: bytes after the last field are
// corruption, not slack.
func TestCheckpointTrailingBytesRejected(t *testing.T) {
	eng, err := NewEngine(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	st := eng.state()
	var buf bytes.Buffer
	if _, err := encodePayload(&buf, &st); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadCheckpoint(bytes.NewReader(resealed(buf.Bytes()))); err != nil {
		t.Fatalf("untouched payload rejected: %v", err)
	}
	_, err = ReadCheckpoint(bytes.NewReader(resealed(append(buf.Bytes(), 0))))
	if err == nil || !strings.Contains(err.Error(), "trailing") {
		t.Fatalf("trailing byte accepted: %v", err)
	}
}

// TestCheckpointV3Rejected: a v3 (JSON) or v4 (sharded binary)
// checkpoint with a valid checksum is refused with an error that names
// both versions.
func TestCheckpointV3Rejected(t *testing.T) {
	payload := []byte(`{"config":{"threshold":1800000000000},"lines":42}`)
	sum := sha256.Sum256(payload)
	for _, v := range []int{3, 4} {
		data := fmt.Sprintf("%s v%d sha256=%s\n%s", checkpointMagic, v, hex.EncodeToString(sum[:]), payload)
		_, err := ReadCheckpoint(strings.NewReader(data))
		if want := fmt.Sprintf("version v%d, this build reads v5", v); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("v%d checkpoint: %v", v, err)
		}
	}
}

// fillDistinct sets every field reachable from v, through structs,
// pointers and slices (two elements each), to a distinct non-zero
// value. A kind it does not know fails the test, so a new kind of
// field gets a filler before it can slip past the round trip.
func fillDistinct(t *testing.T, v reflect.Value, n *int) {
	t.Helper()
	*n++
	switch {
	case v.Type() == reflect.TypeOf(time.Time{}):
		v.Set(reflect.ValueOf(time.Unix(int64(*n)*3600, int64(*n)).UTC()))
		return
	case v.Kind() == reflect.Bool:
		v.SetBool(true)
		return
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int64:
		v.SetInt(int64(*n))
	case reflect.Float64:
		// Every third value is integral, so both float slice forms are
		// exercised.
		f := float64(*n)
		if *n%3 != 0 {
			f += 0.25
		}
		v.SetFloat(f)
	case reflect.String:
		v.SetString(fmt.Sprintf("s%d", *n))
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
		fillDistinct(t, v.Elem(), n)
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 2, 2))
		for i := 0; i < v.Len(); i++ {
			fillDistinct(t, v.Index(i), n)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				t.Fatalf("%s.%s is unexported: the checkpoint cannot carry it", v.Type(), v.Type().Field(i).Name)
			}
			fillDistinct(t, v.Field(i), n)
		}
	default:
		t.Fatalf("no filler for %s (kind %s)", v.Type(), v.Kind())
	}
}

// TestCheckpointCodecCoversEveryField: a state with every field, at
// every depth, set to a distinct non-zero value decodes to a deeply
// equal state, so a field added to engineState or any struct under it
// fails here until the codec's field walk carries it.
func TestCheckpointCodecCoversEveryField(t *testing.T) {
	var st engineState
	n := 0
	fillDistinct(t, reflect.ValueOf(&st).Elem(), &n)
	var buf bytes.Buffer
	if _, err := encodePayload(&buf, &st); err != nil {
		t.Fatal(err)
	}
	got, err := decodeState(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, st) {
		t.Fatalf("round trip lost fields:\nwant %+v\ngot  %+v", st, got)
	}
}
