package session

import (
	"fmt"
	"sort"
	"time"
)

// StreamerState is the checkpointable image of a Streamer. Active
// sessions are stored in host order; the expiry heap is stored
// verbatim (its exact slice layout), because the pop order of
// equal-time entries decides session-close order and therefore the
// floating-point fold order of downstream estimators — a rebuilt heap
// with a different internal layout would be semantically equivalent
// but not byte-identical on resume.
type StreamerState struct {
	Threshold  time.Duration
	Active     []Session
	Expiry     []ExpiryState
	LastTime   time.Time
	SawAny     bool
	Opened     int64
	PeakActive int
	Clamped    int64
}

// ExpiryState is one scheduled expiry check in heap-slice order.
type ExpiryState struct {
	At   time.Time
	Host string
}

// State captures the streamer for checkpointing.
func (s *Streamer) State() StreamerState {
	st := StreamerState{
		Threshold:  s.threshold,
		Active:     make([]Session, 0, len(s.active)),
		Expiry:     make([]ExpiryState, len(s.expiry)),
		LastTime:   s.lastTime,
		SawAny:     s.sawAny,
		Opened:     s.opened,
		PeakActive: s.peakActive,
		Clamped:    s.clamped,
	}
	for _, cur := range s.active {
		st.Active = append(st.Active, *cur)
	}
	sort.Slice(st.Active, func(i, j int) bool { return st.Active[i].Host < st.Active[j].Host })
	for i, e := range s.expiry {
		st.Expiry[i] = ExpiryState{At: e.at, Host: e.host}
	}
	return st
}

// RestoreStreamer rebuilds a streamer from a checkpointed state,
// reproducing the live maps and the expiry heap's exact slice layout.
func RestoreStreamer(st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(st.Threshold)
	if err != nil {
		return nil, fmt.Errorf("session: restoring streamer: %w", err)
	}
	for i := range st.Active {
		sess := st.Active[i]
		if _, dup := s.active[sess.Host]; dup {
			return nil, fmt.Errorf("session: restoring streamer: duplicate active host %q", sess.Host)
		}
		s.active[sess.Host] = &sess
	}
	s.expiry = make(expiryHeap, len(st.Expiry))
	for i, e := range st.Expiry {
		s.expiry[i] = expiryEntry{at: e.At, host: e.Host}
	}
	s.lastTime = st.LastTime
	s.sawAny = st.SawAny
	s.opened = st.Opened
	s.peakActive = st.PeakActive
	s.clamped = st.Clamped
	return s, nil
}
