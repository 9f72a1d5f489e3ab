package session

import (
	"fmt"
	"slices"
	"strings"
	"time"
)

// StreamerState is the checkpointable image of a Streamer. Active
// sessions are stored in host order. The last-touch list is not
// stored: close order is canonical (closeOrder), so RestoreStreamer
// rebuilds the list by sorting the active sessions into that order and
// the resumed streamer closes every session exactly when and in the
// order the uninterrupted one would.
type StreamerState struct {
	Threshold  time.Duration
	Active     []Session
	LastTime   time.Time
	SawAny     bool
	Opened     int64
	PeakActive int
	Clamped    int64
}

// State captures the streamer for checkpointing.
func (s *Streamer) State() StreamerState {
	st := StreamerState{
		Threshold:  s.threshold,
		Active:     make([]Session, 0, len(s.active)),
		LastTime:   s.lastTime,
		SawAny:     s.sawAny,
		Opened:     s.opened,
		PeakActive: s.peakActive,
		Clamped:    s.clamped,
	}
	for n := s.head; n != nil; n = n.next {
		st.Active = append(st.Active, n.Session)
	}
	slices.SortFunc(st.Active, func(a, b Session) int { return strings.Compare(a.Host, b.Host) })
	return st
}

// RestoreStreamer rebuilds a streamer from a checkpointed state. It
// refuses active sessions no uninterrupted run could hold: a duplicate
// host, an empty session, one that ends before it starts or after the
// stream clock, or one the clock has already carried past the
// threshold (it would have been evicted).
func RestoreStreamer(st StreamerState) (*Streamer, error) {
	s, err := NewStreamer(st.Threshold)
	if err != nil {
		return nil, fmt.Errorf("session: restoring streamer: %w", err)
	}
	nodes := make([]*openSession, len(st.Active))
	for i, sess := range st.Active {
		switch {
		case s.active[sess.Host] != nil:
			return nil, fmt.Errorf("session: restoring streamer: duplicate active host %q", sess.Host)
		case sess.Requests < 1:
			return nil, fmt.Errorf("session: restoring streamer: host %q holds %d requests", sess.Host, sess.Requests)
		case sess.Start.After(sess.End):
			return nil, fmt.Errorf("session: restoring streamer: host %q starts at %v after its end %v", sess.Host, sess.Start, sess.End)
		case sess.End.After(st.LastTime):
			return nil, fmt.Errorf("session: restoring streamer: host %q ends at %v after the stream clock %v", sess.Host, sess.End, st.LastTime)
		case st.LastTime.Sub(sess.End) > st.Threshold:
			return nil, fmt.Errorf("session: restoring streamer: host %q idle since %v should have been evicted by %v", sess.Host, sess.End, st.LastTime)
		}
		nodes[i] = &openSession{Session: sess}
		s.active[sess.Host] = nodes[i]
	}
	slices.SortFunc(nodes, func(a, b *openSession) int { return closeOrder(a.Session, b.Session) })
	for _, n := range nodes {
		s.pushTail(n)
	}
	s.lastTime = st.LastTime
	s.sawAny = st.SawAny
	s.opened = st.Opened
	s.peakActive = st.PeakActive
	s.clamped = st.Clamped
	return s, nil
}
