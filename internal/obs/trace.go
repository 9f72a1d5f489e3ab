package obs

import (
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Values are pre-rendered strings so the
// export format needs no type dispatch and stays byte-stable.
type Attr struct {
	Key   string
	Value string
}

// SpanData is the record of one finished (or in-flight) span. The
// owning goroutine mutates it between start and End; after End it is
// handed to the sink and must be treated as immutable.
type SpanData struct {
	ID     uint64
	Parent uint64
	Name   string
	Start  time.Time
	End    time.Time
	Attrs  []Attr
}

// SpanSink receives span lifecycle events. SpanStart fires when a span
// begins (the hook the live progress view uses to track depth) and
// SpanEnd when it finishes. Both are called under the tracer's lock,
// so a sink sees events serialized and need not synchronize against
// other sink calls — only against its own readers.
type SpanSink interface {
	SpanStart(d *SpanData)
	SpanEnd(d *SpanData)
}

// MultiSink fans span events out to several sinks in order.
type MultiSink []SpanSink

// SpanStart implements SpanSink.
func (m MultiSink) SpanStart(d *SpanData) {
	for _, s := range m {
		s.SpanStart(d)
	}
}

// SpanEnd implements SpanSink.
func (m MultiSink) SpanEnd(d *SpanData) {
	for _, s := range m {
		s.SpanEnd(d)
	}
}

// Tracer creates spans and forwards them to a sink. A nil *Tracer is a
// valid no-op tracer; constructed tracers are safe for concurrent use.
// Tracing is observability only: nothing the engine computes may read
// back span state, which is what keeps results byte-identical with
// tracing on and off.
type Tracer struct {
	clock  Clock
	mu     sync.Mutex
	sink   SpanSink
	nextID atomic.Uint64
}

// NewTracer returns a tracer stamping spans with clock and emitting
// them to sink. A nil clock or sink yields a tracer that still tracks
// span identity but stamps zero times / drops events — mainly useful
// in tests.
func NewTracer(clock Clock, sink SpanSink) *Tracer {
	return &Tracer{clock: clock, sink: sink}
}

// start creates a live span. Only StartSpan calls this; a nil tracer
// never reaches it.
func (t *Tracer) start(name string, parent uint64) Span {
	d := &SpanData{
		ID:     t.nextID.Add(1),
		Parent: parent,
		Name:   name,
	}
	if t.clock != nil {
		d.Start = t.clock.Now()
	}
	if t.sink != nil {
		t.mu.Lock()
		t.sink.SpanStart(d)
		t.mu.Unlock()
	}
	return Span{tr: t, data: d}
}

// Span is a handle on one in-flight span. The zero value is inert:
// every method is a no-op, which is what makes the disabled path free.
// A non-zero Span is owned by one goroutine between StartSpan and End.
type Span struct {
	tr   *Tracer
	data *SpanData
}

// SetAttr attaches a string attribute. No-op on an inert span.
func (s Span) SetAttr(key, value string) {
	if s.data == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: value})
}

// SetInt attaches an integer attribute. The rendering happens only on
// active spans, so the disabled path pays no strconv cost.
func (s Span) SetInt(key string, v int64) {
	if s.data == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: strconv.FormatInt(v, 10)})
}

// End stamps the span's end time and emits it to the tracer's sink.
// No-op on an inert span; calling End twice emits twice, so don't.
func (s Span) End() {
	if s.data == nil {
		return
	}
	if s.tr.clock != nil {
		s.data.End = s.tr.clock.Now()
	}
	if s.tr.sink != nil {
		s.tr.mu.Lock()
		s.tr.sink.SpanEnd(s.data)
		s.tr.mu.Unlock()
	}
}
