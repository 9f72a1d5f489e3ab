package session

import (
	"fmt"
	"slices"
	"strings"
	"time"

	"fullweb/internal/weblog"
)

// Streamer sessionizes a log incrementally in a single time-ordered
// pass, holding only the currently open sessions in memory. Sessions are
// emitted as soon as their inactivity gap is provably exceeded, so
// arbitrarily long logs can be processed with memory proportional to
// the number of concurrently active users — the production counterpart
// of the batch Sessionize used by the analyses.
//
// The open sessions sit on an intrusive doubly linked list in
// last-touch order. Input is time-ordered, so a touched session moves
// to the tail with the largest End, the list stays sorted by End, and
// the sessions due to close are exactly a prefix of it: expiry is O(1)
// per record and per closed session.
type Streamer struct {
	threshold time.Duration
	active    map[string]*openSession
	// head is the least recently touched open session, tail the most
	// recently touched.
	head, tail *openSession
	lastTime   time.Time
	sawAny     bool
	opened     int64
	// peakActive is the high-water mark of concurrently open sessions —
	// the quantity that bounds the streamer's live memory, tracked so
	// bounded-memory regression tests can assert it stays flat as trace
	// length grows.
	peakActive int
	// clamped counts records whose timestamps ran backwards and were
	// clamped to the stream clock by ObserveClamped.
	clamped int64
}

// openSession is one open session and its links in last-touch order.
type openSession struct {
	Session
	prev, next *openSession
}

// pushTail links n as the most recently touched session.
func (s *Streamer) pushTail(n *openSession) {
	n.prev, n.next = s.tail, nil
	if s.tail != nil {
		s.tail.next = n
	} else {
		s.head = n
	}
	s.tail = n
}

// unlink removes n from the list.
func (s *Streamer) unlink(n *openSession) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// closeOrder is the canonical session-close order: by End, then Start,
// then Host. A host has at most one open session, so the order is
// total within an eviction batch, and close order — which decides the
// floating-point fold order of every downstream estimator — is a
// function of the sessions alone, not of how they were stored.
func closeOrder(a, b Session) int {
	if c := a.End.Compare(b.End); c != 0 {
		return c
	}
	if c := a.Start.Compare(b.Start); c != 0 {
		return c
	}
	return strings.Compare(a.Host, b.Host)
}

// NewStreamer returns a streaming sessionizer with the given inactivity
// threshold.
func NewStreamer(threshold time.Duration) (*Streamer, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadThreshold, threshold)
	}
	return &Streamer{
		threshold: threshold,
		active:    make(map[string]*openSession),
	}, nil
}

// ActiveSessions returns the number of currently open sessions.
func (s *Streamer) ActiveSessions() int { return len(s.active) }

// PeakActiveSessions returns the high-water mark of concurrently open
// sessions since the streamer was created or last reset by Flush.
func (s *Streamer) PeakActiveSessions() int { return s.peakActive }

// OpenedTotal returns the number of sessions opened so far (closed and
// still active alike). A caller that compares the value before and
// after feeding a record learns whether it initiated a session — the
// streaming source of the sessions-initiated-per-second arrival series,
// known at open time rather than at close time.
func (s *Streamer) OpenedTotal() int64 { return s.opened }

// NextExpiry returns the exact eviction frontier and whether a session
// is open: the least recently touched session closes on the first
// record stamped after End + threshold. A live telemetry view shows it
// next to the stream clock.
func (s *Streamer) NextExpiry() (time.Time, bool) {
	if s.head == nil {
		return time.Time{}, false
	}
	return s.head.End.Add(s.threshold), true
}

// ObserveClamped feeds one record, tolerating non-monotonic input:
// a record timestamped before the current stream clock is clamped
// forward to the clock and counted, never rejected. This is
// the deterministic policy for the clock skew real multi-server traces
// carry — the record keeps its host/bytes/status contribution, its
// arrival lands in the current second, and sessions can only extend,
// never rewind. Callers budget-track the clamp count to decide whether
// the input degraded beyond tolerance.
func (s *Streamer) ObserveClamped(r weblog.Record) ([]Session, error) { return s.ObserveClampedRef(&r) }

// ObserveClampedRef is ObserveClamped on the caller's record, taken by
// reference rather than copied; a clamp rewrites r.Time in place.
//
//hot:path
func (s *Streamer) ObserveClampedRef(r *weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		r.Time = s.lastTime
		s.clamped++
	}
	return s.observe(r)
}

// observe feeds one record, read by reference and never copied or
// kept. Records must arrive in non-decreasing time order (access logs
// are written that way). It returns the sessions whose inactivity
// window closed strictly before this record's timestamp, in close
// order (closeOrder).
//
// One call per record: the intrusive list exists so this path
// allocates nothing but the node and host of each opened session and
// the batch of each eviction (DESIGN.md §13).
//
//hot:path
func (s *Streamer) observe(r *weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		return nil, fmt.Errorf("session: streamer requires time-ordered input: %v after %v", r.Time, s.lastTime)
	}
	s.lastTime = r.Time
	s.sawAny = true
	closed := s.evict(r.Time)
	if cur, ok := s.active[r.Host]; ok {
		// Eviction left only sessions within the threshold of now.
		cur.absorb(r)
		if cur != s.tail {
			s.unlink(cur)
			s.pushTail(cur)
		}
		return closed, nil
	}
	// The record's Host slices the text of its whole input chunk (the
	// chunked reader allocates one string per chunk); the open session
	// outlives the chunk, so it keeps a copy of just the host — one
	// allocation per opened session, not per record.
	n := &openSession{Session: open(r)}
	n.Host = strings.Clone(r.Host)
	s.pushTail(n)
	s.active[n.Host] = n
	s.opened++
	if len(s.active) > s.peakActive {
		s.peakActive = len(s.active)
	}
	return closed, nil
}

// evict closes every session whose inactivity window ended strictly
// before now: a prefix of the list, sorted into close order.
//
//hot:path — called from observe on every record.
func (s *Streamer) evict(now time.Time) []Session {
	var closed []Session
	for n := s.head; n != nil && now.Sub(n.End) > s.threshold; n = s.head {
		// Growth is per closed session, not per record: eviction
		// bursts are bounded by the active-session count and most
		// calls close zero or one session, so a presized buffer
		// would be pure waste.
		closed = append(closed, n.Session) //lint:allow hotalloc amortized per closed session, not per record
		s.unlink(n)
		delete(s.active, n.Host)
	}
	if len(closed) > 1 {
		slices.SortFunc(closed, closeOrder)
	}
	return closed
}

// Flush closes and returns all still-open sessions; call it after the
// last record. The streamer is reusable afterwards.
func (s *Streamer) Flush() []Session {
	out := make([]Session, 0, len(s.active))
	for n := s.head; n != nil; n = n.next {
		out = append(out, n.Session)
	}
	s.active = make(map[string]*openSession)
	s.head, s.tail = nil, nil
	s.sawAny = false
	sortSessions(out)
	return out
}
