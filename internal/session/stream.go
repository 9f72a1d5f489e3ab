package session

import (
	"fmt"
	"time"

	"fullweb/internal/weblog"
)

// Streamer sessionizes a log incrementally in a single time-ordered
// pass, holding only the currently open sessions in memory. Sessions are
// emitted as soon as their inactivity gap is provably exceeded, so
// arbitrarily long logs can be processed with memory proportional to
// the number of concurrently active users — the production counterpart
// of the batch Sessionize used by the analyses.
type Streamer struct {
	threshold time.Duration
	active    map[string]*Session
	expiry    expiryHeap
	lastTime  time.Time
	sawAny    bool
	opened    int64
	// peakActive is the high-water mark of concurrently open sessions —
	// the quantity that bounds the streamer's live memory, tracked so
	// bounded-memory regression tests can assert it stays flat as trace
	// length grows.
	peakActive int
	// clamped counts records whose timestamps ran backwards and were
	// clamped to the stream clock by ObserveClamped.
	clamped int64
}

// expiryEntry schedules a host for an expiry check; lazily invalidated
// entries (the session saw more requests since) are skipped on pop.
type expiryEntry struct {
	at   time.Time
	host string
}

// expiryHeap is a concrete min-heap on expiryEntry.at. It deliberately
// does NOT implement container/heap.Interface: the stdlib driver boxes
// every pushed entry and every popped result in an interface value —
// two heap allocations per observed record on the streaming hot path.
// The sift algorithms below are mechanical transcriptions of
// container/heap's up/down with Less = at.Before, so the slice layout
// after any push/pop sequence — including the tie-breaking order of
// equal-time entries, which checkpoints store verbatim and which
// decides session-close order — is bit-for-bit what the stdlib driver
// would produce.
type expiryHeap []expiryEntry

func (h *expiryHeap) push(e expiryEntry) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

func (h *expiryHeap) pop() expiryEntry {
	old := *h
	n := len(old) - 1
	old[0], old[n] = old[n], old[0]
	old[:n].down(0)
	v := old[n]
	*h = old[:n]
	return v
}

func (h expiryHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h[j].at.Before(h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

func (h expiryHeap) down(i0 int) {
	n := len(h)
	i := i0
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h[j2].at.Before(h[j1].at) {
			j = j2 // = 2*i + 2  // right child
		}
		if !h[j].at.Before(h[i].at) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// NewStreamer returns a streaming sessionizer with the given inactivity
// threshold.
func NewStreamer(threshold time.Duration) (*Streamer, error) {
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadThreshold, threshold)
	}
	return &Streamer{
		threshold: threshold,
		active:    make(map[string]*Session),
	}, nil
}

// ActiveSessions returns the number of currently open sessions.
func (s *Streamer) ActiveSessions() int { return len(s.active) }

// PeakActiveSessions returns the high-water mark of concurrently open
// sessions since the streamer was created or last reset by Flush.
func (s *Streamer) PeakActiveSessions() int { return s.peakActive }

// OpenedTotal returns the number of sessions opened so far (closed and
// still active alike). A caller that compares the value before and
// after Observe learns whether the record initiated a session — the
// streaming source of the sessions-initiated-per-second arrival series,
// known at open time rather than at close time.
func (s *Streamer) OpenedTotal() int64 { return s.opened }

// NextExpiry returns the earliest scheduled expiry check and whether
// one is pending — the eviction frontier a live telemetry view shows
// next to the stream clock. Entries are lazily invalidated (a session
// that saw more requests reschedules rather than rewrites), so the
// returned time is a lower bound on the next actual close, never an
// exact prediction.
func (s *Streamer) NextExpiry() (time.Time, bool) {
	if len(s.expiry) == 0 {
		return time.Time{}, false
	}
	return s.expiry[0].at, true
}

// Clamped returns how many records ObserveClamped pulled forward to
// the stream clock because their timestamps ran backwards.
func (s *Streamer) Clamped() int64 { return s.clamped }

// LastTime returns the stream clock — the largest timestamp observed
// so far (zero before any record).
func (s *Streamer) LastTime() time.Time { return s.lastTime }

// ObserveClamped feeds one record, tolerating non-monotonic input:
// a record timestamped before the current stream clock is clamped
// forward to the clock and counted (Clamped), never rejected. This is
// the deterministic policy for the clock skew real multi-server traces
// carry — the record keeps its host/bytes/status contribution, its
// arrival lands in the current second, and sessions can only extend,
// never rewind. Callers budget-track the clamp count to decide whether
// the input degraded beyond tolerance.
func (s *Streamer) ObserveClamped(r weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		r.Time = s.lastTime
		s.clamped++
	}
	return s.Observe(r)
}

// Observe feeds one record. Records must arrive in non-decreasing time
// order (access logs are written that way). It returns any sessions
// whose inactivity window closed at or before this record's timestamp.
//
// One call per record: the concrete expiry heap exists so this path
// allocates nothing but amortized session growth (DESIGN.md §13).
//
//hot:path
func (s *Streamer) Observe(r weblog.Record) ([]Session, error) {
	if s.sawAny && r.Time.Before(s.lastTime) {
		return nil, fmt.Errorf("session: streamer requires time-ordered input: %v after %v", r.Time, s.lastTime)
	}
	s.lastTime = r.Time
	s.sawAny = true
	closed := s.evict(r.Time)
	cur, ok := s.active[r.Host]
	if ok && r.Time.Sub(cur.End) > s.threshold {
		// Should have been evicted already, but guard against equal-time
		// boundary cases.
		closed = append(closed, *cur)
		ok = false
	}
	if !ok {
		fresh := open(r)
		s.active[r.Host] = &fresh
		s.opened++
		if len(s.active) > s.peakActive {
			s.peakActive = len(s.active)
		}
	} else {
		cur.absorb(r)
	}
	s.expiry.push(expiryEntry{at: r.Time.Add(s.threshold), host: r.Host})
	return closed, nil
}

// evict closes every session whose inactivity window ended strictly
// before now.
//
//hot:path — called from Observe on every record; pops must not box.
func (s *Streamer) evict(now time.Time) []Session {
	var closed []Session
	for len(s.expiry) > 0 && s.expiry[0].at.Before(now) {
		entry := s.expiry.pop()
		cur, ok := s.active[entry.host]
		if !ok {
			continue // session already closed
		}
		if now.Sub(cur.End) > s.threshold {
			// Growth is per closed session, not per record: eviction
			// bursts are bounded by the active-session count and most
			// calls close zero or one session, so a presized buffer
			// would be pure waste.
			closed = append(closed, *cur) //lint:allow hotalloc amortized per closed session, not per record
			delete(s.active, entry.host)
		}
		// Otherwise the session saw later requests; a fresher expiry
		// entry exists in the heap.
	}
	return closed
}

// Flush closes and returns all still-open sessions; call it after the
// last record. The streamer is reusable afterwards.
func (s *Streamer) Flush() []Session {
	out := make([]Session, 0, len(s.active))
	for _, cur := range s.active {
		out = append(out, *cur)
	}
	s.active = make(map[string]*Session)
	s.expiry = s.expiry[:0]
	s.sawAny = false
	sortSessions(out)
	return out
}
