// The live arrival-series ring: a bounded per-second view of the two
// arrival processes (requests, session openings) over the most recent
// trace seconds, maintained on the fold path and published
// copy-on-publish for the serve-mode what-if layer (DESIGN.md §15).
// The ring is pure trace-time state — wall clocks never touch it — so
// its contents are a deterministic function of the input stream, and
// it is checkpointed with the rest of the engine so a resumed run
// answers what-if queries identically to an uninterrupted one.

package stream

import "fmt"

// DefaultArrivalWindow is the arrival-ring width `fullweb serve` uses
// when none is configured: one hour of trace seconds, enough for the
// fluid-queue replay to see burst structure well past the paper's
// session threshold.
const DefaultArrivalWindow = 3600

// ArrivalSeries is one immutable copy-on-publish view of the arrival
// ring: per-second request and session-opening counts for the window
// ending at the engine's trace clock. Requests[i] and Sessions[i]
// count the Unix second Start+i; the final element is the engine's
// current (still open) second, so its count can still grow in a later
// publication.
type ArrivalSeries struct {
	// Start is the Unix second of index 0.
	Start int64 `json:"start"`
	// Requests and Sessions are the per-second counts, same length.
	Requests []float64 `json:"requests"`
	Sessions []float64 `json:"sessions"`
}

// Seconds returns the window length.
func (s *ArrivalSeries) Seconds() int { return len(s.Requests) }

// MeanRates returns the mean request and session arrival rates per
// second over the window (0, 0 for an empty series).
func (s *ArrivalSeries) MeanRates() (req, sess float64) {
	n := len(s.Requests)
	if n == 0 {
		return 0, 0
	}
	for i := 0; i < n; i++ {
		req += s.Requests[i]
		sess += s.Sessions[i]
	}
	return req / float64(n), sess / float64(n)
}

// ArrivalPublisher is the optional extension of Telemetry that
// receives arrival-series publications. The engine type-asserts its
// telemetry hook once at construction; a hook that does not implement
// it simply never sees the series.
type ArrivalPublisher interface {
	// PublishArrivals receives a fresh, fully detached copy of the
	// ring; retaining the pointer is safe.
	PublishArrivals(*ArrivalSeries)
}

// arrivalRing is the fixed-width per-second counting ring. Slot
// sec%capW holds second sec's counts; the window covers the n seconds
// ending at last. Updated on the //hot:path fold (pure index
// arithmetic, no allocation); read only by series(), which runs at
// chunk granularity.
type arrivalRing struct {
	capW    int
	req     []float64
	sess    []float64
	last    int64
	n       int
	started bool
}

// newArrivalRing builds a ring over window seconds.
func newArrivalRing(window int) *arrivalRing {
	return &arrivalRing{
		capW: window,
		req:  make([]float64, window),
		sess: make([]float64, window),
	}
}

// observe counts one record at Unix second sec (non-decreasing: the
// engine clamps timestamps before any tracker sees them), with session
// set when the record opened a new session.
func (r *arrivalRing) observe(sec int64, session bool) {
	if !r.started {
		r.started = true
		r.last = sec
		r.n = 1
		idx := mod(sec, r.capW)
		r.req[idx] = 0
		r.sess[idx] = 0
	} else if sec > r.last {
		if sec-r.last >= int64(r.capW) {
			// The whole window scrolled past: every slot is a zero
			// second; skip the per-second walk.
			for i := range r.req {
				r.req[i] = 0
				r.sess[i] = 0
			}
			r.last = sec
			r.n = r.capW
		} else {
			for r.last < sec {
				r.last++
				idx := mod(r.last, r.capW)
				r.req[idx] = 0
				r.sess[idx] = 0
				if r.n < r.capW {
					r.n++
				}
			}
		}
	}
	idx := mod(sec, r.capW)
	r.req[idx]++
	if session {
		r.sess[idx]++
	}
}

// mod is a nonnegative sec%cap (Unix seconds before 1970 are negative;
// synthetic traces may start there).
func mod(sec int64, capW int) int {
	m := int(sec % int64(capW))
	if m < 0 {
		m += capW
	}
	return m
}

// series builds a detached copy of the window in chronological order.
// Returns nil before the first observation.
func (r *arrivalRing) series() *ArrivalSeries {
	if !r.started {
		return nil
	}
	st := arrivalState{Requests: make([]float64, 0, r.n), Sessions: make([]float64, 0, r.n)}
	r.stateInto(&st)
	return &ArrivalSeries{Start: r.last - int64(r.n) + 1, Requests: st.Requests, Sessions: st.Sessions}
}

// arrivalState is the checkpointable image of an arrivalRing: the
// window in chronological order, exactly what series() reads off.
type arrivalState struct {
	Last     int64
	Started  bool
	Requests []float64
	Sessions []float64
}

// state captures the ring into a fresh image. The engine captures
// through stateInto; state is the anchor statesync proves the
// checkpoint codec against.
func (r *arrivalRing) state() arrivalState {
	var st arrivalState
	r.stateInto(&st)
	return st
}

// stateInto captures the ring into dst in chronological order,
// reusing the capacity of dst's slices.
func (r *arrivalRing) stateInto(dst *arrivalState) {
	dst.Last = r.last
	dst.Started = r.started
	dst.Requests = dst.Requests[:0]
	dst.Sessions = dst.Sessions[:0]
	if !r.started {
		return
	}
	start := r.last - int64(r.n) + 1
	for i := 0; i < r.n; i++ {
		idx := mod(start+int64(i), r.capW)
		dst.Requests = append(dst.Requests, r.req[idx])
		dst.Sessions = append(dst.Sessions, r.sess[idx])
	}
}

func (r *arrivalRing) restore(st arrivalState) error {
	if len(st.Requests) != len(st.Sessions) {
		return fmt.Errorf("stream: arrival ring holds %d request seconds but %d session seconds", len(st.Requests), len(st.Sessions))
	}
	if len(st.Requests) > r.capW {
		return fmt.Errorf("stream: arrival ring holds %d seconds, window is %d", len(st.Requests), r.capW)
	}
	r.started = st.Started
	r.last = st.Last
	r.n = len(st.Requests)
	for i := range r.req {
		r.req[i] = 0
		r.sess[i] = 0
	}
	start := st.Last - int64(r.n) + 1
	for i := 0; i < r.n; i++ {
		idx := mod(start+int64(i), r.capW)
		r.req[idx] = st.Requests[i]
		r.sess[idx] = st.Sessions[i]
	}
	return nil
}
