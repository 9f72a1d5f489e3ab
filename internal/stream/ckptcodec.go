// The v6 checkpoint payload codec: engineState's fields in a fixed
// order, with no field names and no reflection. Ints and lengths are
// varints, bools one byte, strings length-prefixed, times their
// MarshalBinary form (seconds, nanoseconds and zone offset) behind a
// length, and float scalars 8-byte little-endian Float64bits. A float
// slice carries a one-byte form tag: uvarints when every value is an
// integer in [0, 2^53) with the sign bit clear, fixed-width otherwise,
// so every value round-trips bit-exactly by construction (DESIGN.md
// §11). One field walk (ckptCodec.state) serves both directions, so
// the layout is written down once.

package stream

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"fullweb/internal/lrd"
	"fullweb/internal/session"
)

// Float slice form tags.
const (
	floatsUvarint byte = 0
	floatsFixed   byte = 1
)

// maxExactInt is 2^53: every integer below it is exact in a float64.
const maxExactInt = 1 << 53

// The fewest bytes one encoded element of the larger fixed-shape
// slices can take (a time is at least a length byte and 15 bytes), so
// the decoder bounds their counts more tightly than one byte each.
const (
	minAggLevelBytes = 3*8 + 3
	minSessionBytes  = 1 + 2*16 + 3
)

// ckptCodec walks a state's fields in layout order. Encoding, it
// writes each field to w; decoding, it reads each field from b into
// the state. The first error sticks: later writes are dropped by the
// buffered writer, later reads return zero values and allocate
// nothing. The decoder checks every length against the bytes that
// remain before it allocates.
type ckptCodec struct {
	enc bool
	w   *bufio.Writer
	tmp []byte
	b   []byte
	err error
}

func (c *ckptCodec) fail(format string, args ...any) {
	if c.err == nil {
		c.err = fmt.Errorf(format, args...)
		c.b = nil
	}
}

// encode writes st's payload through an encoding codec.
func (c *ckptCodec) encode(st *engineState) error {
	c.err = nil
	c.state(st)
	if c.err != nil {
		return c.err
	}
	return c.w.Flush()
}

// decodeState reads a payload written by encode, rejecting
// malformed and trailing bytes.
func decodeState(payload []byte) (engineState, error) {
	c := &ckptCodec{b: payload}
	var st engineState
	c.state(&st)
	if c.err == nil && len(c.b) > 0 {
		c.fail("%d trailing bytes", len(c.b))
	}
	return st, c.err
}

func (c *ckptCodec) uvarint(v uint64) uint64 {
	if c.enc {
		c.tmp = binary.AppendUvarint(c.tmp[:0], v)
		c.w.Write(c.tmp)
		return v
	}
	v, n := binary.Uvarint(c.b)
	if n <= 0 {
		c.fail("bad uvarint")
		return 0
	}
	c.b = c.b[n:]
	return v
}

func (c *ckptCodec) i64(p *int64) {
	if c.enc {
		c.tmp = binary.AppendVarint(c.tmp[:0], *p)
		c.w.Write(c.tmp)
		return
	}
	v, n := binary.Varint(c.b)
	if n <= 0 {
		c.fail("bad varint")
		return
	}
	c.b = c.b[n:]
	*p = v
}

func (c *ckptCodec) intv(p *int) {
	v := int64(*p)
	c.i64(&v)
	if int64(int(v)) != v {
		c.fail("integer %d out of range", v)
		return
	}
	*p = int(v)
}

func (c *ckptCodec) dur(p *time.Duration) {
	v := int64(*p)
	c.i64(&v)
	*p = time.Duration(v)
}

// count writes n, or reads a count of items that each take at least
// minSize bytes and rejects one the remaining payload cannot hold.
func (c *ckptCodec) count(n, minSize int) int {
	v := c.uvarint(uint64(n))
	if !c.enc && v > uint64(len(c.b)/minSize) {
		c.fail("length %d exceeds the %d bytes left", v, len(c.b))
		return 0
	}
	return int(v)
}

func (c *ckptCodec) u8(v byte) byte {
	if c.enc {
		c.w.WriteByte(v)
		return v
	}
	if len(c.b) == 0 {
		c.fail("unexpected end of payload")
		return 0
	}
	v = c.b[0]
	c.b = c.b[1:]
	return v
}

func (c *ckptCodec) flag(p *bool) {
	var v byte
	if *p {
		v = 1
	}
	switch v = c.u8(v); v {
	case 0, 1:
		*p = v == 1
	default:
		c.fail("bad bool byte %d", v)
	}
}

// bytes writes b, or reads a length-prefixed byte string that aliases
// the payload.
func (c *ckptCodec) bytes(b []byte) []byte {
	n := c.count(len(b), 1)
	if c.enc {
		c.w.Write(b)
		return b
	}
	b = c.b[:n]
	c.b = c.b[n:]
	return b
}

// blob writes *p, or reads a length-prefixed byte string into a copy
// (nil when empty).
func (c *ckptCodec) blob(p *[]byte) {
	b := c.bytes(*p)
	if !c.enc {
		*p = nil
		if len(b) > 0 {
			*p = bytes.Clone(b)
		}
	}
}

func (c *ckptCodec) str(p *string) {
	if c.enc {
		c.count(len(*p), 1)
		c.w.WriteString(*p)
		return
	}
	*p = string(c.bytes(nil))
}

func (c *ckptCodec) f64(p *float64) {
	if c.enc {
		c.tmp = binary.LittleEndian.AppendUint64(c.tmp[:0], math.Float64bits(*p))
		c.w.Write(c.tmp)
		return
	}
	if len(c.b) < 8 {
		c.fail("unexpected end of payload")
		return
	}
	*p = math.Float64frombits(binary.LittleEndian.Uint64(c.b))
	c.b = c.b[8:]
}

func (c *ckptCodec) when(p *time.Time) {
	if c.enc {
		b, err := p.MarshalBinary()
		if err != nil && c.err == nil {
			c.err = err
		}
		c.bytes(b)
		return
	}
	if b := c.bytes(nil); c.err == nil {
		if err := p.UnmarshalBinary(b); err != nil {
			c.fail("bad time: %v", err)
		}
	}
}

// exactUint reports whether f is an integer in [0, 2^53) with the sign
// bit clear: exactly the values a uvarint carries bit-exactly.
func exactUint(f float64) bool {
	return f >= 0 && f < maxExactInt && float64(uint64(f)) == f && !math.Signbit(f)
}

func (c *ckptCodec) floats(p *[]float64) {
	if c.enc {
		c.encodeFloats(*p)
		return
	}
	*p = nil
	n := c.count(0, 1)
	if n == 0 {
		return
	}
	form := c.u8(0)
	switch {
	case c.err != nil:
		return
	case form == floatsFixed && n > len(c.b)/8:
		c.fail("%d fixed-width floats exceed the %d bytes left", n, len(c.b))
		return
	case form != floatsUvarint && form != floatsFixed:
		c.fail("bad float slice form %d", form)
		return
	}
	fs := make([]float64, n)
	for i := range fs {
		if form == floatsFixed {
			c.f64(&fs[i])
			continue
		}
		v := c.uvarint(0)
		if v >= maxExactInt {
			c.fail("uvarint float %d not below 2^53", v)
		}
		fs[i] = float64(v)
	}
	*p = fs
}

func (c *ckptCodec) encodeFloats(fs []float64) {
	c.count(len(fs), 1)
	if len(fs) == 0 {
		return
	}
	form := floatsUvarint
	for _, f := range fs {
		if !exactUint(f) {
			form = floatsFixed
			break
		}
	}
	c.w.WriteByte(form)
	// The values are appended straight into the writer's free buffer,
	// which is written out whenever it could not take one more: per-value
	// writes would cost more than the encoding itself.
	b := c.w.AvailableBuffer()
	for _, f := range fs {
		if cap(b)-len(b) < binary.MaxVarintLen64 {
			c.w.Write(b)
			if err := c.w.Flush(); err != nil {
				if c.err == nil {
					c.err = err
				}
				return
			}
			b = c.w.AvailableBuffer()
		}
		if form == floatsUvarint {
			b = binary.AppendUvarint(b, uint64(f))
		} else {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	c.w.Write(b)
}

// codecSlice walks a slice: its length, then each element. Decoding,
// it allocates the slice (nil when empty) once the length is known to
// fit in the bytes left.
func codecSlice[T any](c *ckptCodec, s *[]T, minSize int, elem func(*T)) {
	n := c.count(len(*s), minSize)
	if !c.enc {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
	for i := range *s {
		elem(&(*s)[i])
	}
}

// state is the payload layout: engineState's fields in order.
func (c *ckptCodec) state(st *engineState) {
	c.fingerprint(&st.Config)
	c.i64(&st.Lines)
	c.i64(&st.QuarantineOffset)
	c.i64(&st.Records)
	c.i64(&st.Bytes)
	c.flag(&st.Started)
	c.when(&st.FirstTime)
	c.when(&st.LastTime)
	c.when(&st.NextSnapshot)
	c.i64(&st.Snapshots)
	c.ingest(&st.Ingest)
	c.second(&st.ReqArr)
	c.second(&st.SessArr)
	hasArrivals := st.Arrivals != nil
	c.flag(&hasArrivals)
	if hasArrivals {
		if !c.enc {
			st.Arrivals = &arrivalState{}
		}
		a := st.Arrivals
		c.i64(&a.Last)
		c.flag(&a.Started)
		c.floats(&a.Requests)
		c.floats(&a.Sessions)
	}
	c.streamer(&st.Streamer)
	c.i64(&st.Closed)
	codecSlice(c, &st.Chars, 1, c.char)
}

func (c *ckptCodec) fingerprint(f *ConfigFingerprint) {
	c.dur(&f.Threshold)
	c.dur(&f.SnapshotEvery)
	c.intv(&f.ReservoirCap)
	c.intv(&f.QuantileCap)
	c.i64(&f.Seed)
	c.f64(&f.HillTailFraction)
	c.f64(&f.HillRelTol)
	c.intv(&f.AggVarLevels)
	c.str(&f.Mode)
	c.i64(&f.Budget.MaxRejects)
	c.f64(&f.Budget.MaxRejectRate)
	c.i64(&f.Budget.MaxClamped)
	c.intv(&f.MaxFieldBytes)
	c.intv(&f.ArrivalWindow)
}

func (c *ckptCodec) ingest(in *IngestStats) {
	c.i64(&in.Rejected)
	c.i64(&in.Malformed)
	c.i64(&in.Oversized)
	c.i64(&in.Clamped)
	c.flag(&in.Truncated)
	codecSlice(c, &in.Samples, 1, c.str)
	c.flag(&in.Degraded)
	codecSlice(c, &in.Reasons, 1, c.str)
}

func (c *ckptCodec) second(st *secondState) {
	codecSlice(c, &st.Est.Levels, minAggLevelBytes, func(l *lrd.AggLevelState) {
		c.i64(&l.Width)
		c.f64(&l.Partial)
		c.i64(&l.Filled)
		c.i64(&l.Blocks)
		c.f64(&l.Mean)
		c.f64(&l.M2)
	})
	c.i64(&st.Est.N)
	c.i64(&st.Cur)
	c.f64(&st.Count)
	c.flag(&st.Started)
	c.flag(&st.Flushed)
}

func (c *ckptCodec) streamer(st *session.StreamerState) {
	c.dur(&st.Threshold)
	codecSlice(c, &st.Active, minSessionBytes, func(s *session.Session) {
		c.str(&s.Host)
		c.when(&s.Start)
		c.when(&s.End)
		c.intv(&s.Requests)
		c.i64(&s.Bytes)
		c.intv(&s.Errors)
	})
	c.when(&st.LastTime)
	c.flag(&st.SawAny)
	c.i64(&st.Opened)
	c.intv(&st.PeakActive)
	c.i64(&st.Clamped)
}

func (c *ckptCodec) char(ch *charCheckpoint) {
	c.str(&ch.Name)
	m := &ch.Moments
	c.i64(&m.N)
	c.f64(&m.Mean)
	c.f64(&m.M2)
	c.f64(&m.Min)
	c.f64(&m.Max)
	q := &ch.Quant
	c.intv(&q.Cap)
	c.i64(&q.N)
	c.floats(&q.Buf)
	codecSlice(c, &q.Levels, 1, c.floats)
	codecSlice(c, &q.Flips, 1, c.flag)
	h := &ch.Hill
	c.intv(&h.Res.Cap)
	c.i64(&h.Res.Seen)
	c.blob(&h.Res.RNG)
	c.floats(&h.Res.Items)
	c.f64(&h.TailFraction)
	c.f64(&h.RelTol)
	c.i64(&h.Dropped)
}
