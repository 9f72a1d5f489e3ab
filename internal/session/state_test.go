package session

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

func recAt(host string, at time.Time) weblog.Record {
	return weblog.Record{Host: host, Time: at, Method: "GET", Path: "/", Proto: "HTTP/1.0", Status: 200, Bytes: 10}
}

func TestObserveClamped(t *testing.T) {
	s, err := NewStreamer(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	if _, err := s.ObserveClamped(recAt("a", t0)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ObserveClamped(recAt("b", t0.Add(5*time.Second))); err != nil {
		t.Fatal(err)
	}
	// A record 3s in the past: clamped to the stream clock, not rejected.
	if _, err := s.ObserveClamped(recAt("a", t0.Add(2*time.Second))); err != nil {
		t.Fatalf("backwards record rejected: %v", err)
	}
	if s.Clamped() != 1 {
		t.Fatalf("Clamped() = %d, want 1", s.Clamped())
	}
	if !s.LastTime().Equal(t0.Add(5 * time.Second)) {
		t.Fatalf("stream clock moved backwards: %v", s.LastTime())
	}
	// The clamped record landed at the clock: host a's session now ends
	// at t0+5s, so it survives eviction until threshold past that.
	closed := s.Flush()
	if len(closed) != 2 {
		t.Fatalf("flushed %d sessions, want 2", len(closed))
	}
	for _, sess := range closed {
		if sess.Host == "a" {
			if !sess.End.Equal(t0.Add(5 * time.Second)) {
				t.Fatalf("clamped session ends at %v, want clock", sess.End)
			}
			if sess.Requests != 2 {
				t.Fatalf("clamped session has %d requests, want 2", sess.Requests)
			}
		}
	}
	// Plain Observe still rejects backwards time.
	if _, err := s.Observe(recAt("c", t0)); err != nil {
		t.Fatalf("post-flush observe: %v", err)
	}
	if _, err := s.Observe(recAt("c", t0.Add(-time.Second))); err == nil {
		t.Fatal("Observe accepted backwards time")
	}
}

// TestStreamerStateRoundTrip: checkpoint mid-stream, restore, and
// require the restored streamer to emit exactly what the original
// emits for the remaining records — including close order.
func TestStreamerStateRoundTrip(t *testing.T) {
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	feed := []weblog.Record{
		recAt("a", t0),
		recAt("b", t0.Add(2*time.Second)),
		recAt("c", t0.Add(2*time.Second)),
		recAt("a", t0.Add(20*time.Second)),
		recAt("d", t0.Add(25*time.Second)),
	}
	tail := []weblog.Record{
		recAt("b", t0.Add(50*time.Second)),
		recAt("e", t0.Add(90*time.Second)),
		recAt("a", t0.Add(400*time.Second)),
	}
	run := func(s *Streamer, recs []weblog.Record) []Session {
		var out []Session
		for _, r := range recs {
			closed, err := s.ObserveClamped(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, closed...)
		}
		return out
	}
	orig, err := NewStreamer(30 * time.Second)
	if err != nil {
		t.Fatal(err)
	}
	run(orig, feed)
	st := orig.State()
	restored, err := RestoreStreamer(st)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st, restored.State()) {
		t.Fatal("restore does not reproduce the captured state")
	}
	a, b := run(orig, tail), run(restored, tail)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("restored streamer diverged:\norig     %+v\nrestored %+v", a, b)
	}
	af, bf := orig.Flush(), restored.Flush()
	if !reflect.DeepEqual(af, bf) {
		t.Fatalf("flush diverged:\norig     %+v\nrestored %+v", af, bf)
	}
	if orig.OpenedTotal() != restored.OpenedTotal() || orig.PeakActiveSessions() != restored.PeakActiveSessions() {
		t.Fatalf("counters diverged: opened %d/%d peak %d/%d",
			orig.OpenedTotal(), restored.OpenedTotal(), orig.PeakActiveSessions(), restored.PeakActiveSessions())
	}
}

func TestRestoreStreamerRejectsBadState(t *testing.T) {
	if _, err := RestoreStreamer(StreamerState{Threshold: 0}); err == nil {
		t.Fatal("zero threshold accepted")
	}
	t0 := time.Date(2004, 1, 12, 10, 0, 0, 0, time.UTC)
	sess := func(host string, start, end time.Duration, requests int) Session {
		return Session{Host: host, Start: t0.Add(start), End: t0.Add(end), Requests: requests}
	}
	for _, c := range []struct {
		name   string
		active []Session
		want   string
	}{
		{"duplicate host", []Session{sess("a", 0, 0, 1), sess("a", 0, 5*time.Second, 2)}, "duplicate active host"},
		{"no requests", []Session{sess("a", 0, 0, 0)}, "holds 0 requests"},
		{"start after end", []Session{sess("a", 5*time.Second, 0, 2)}, "after its end"},
		{"end after clock", []Session{sess("a", 0, 11*time.Second, 2)}, "after the stream clock"},
		{"overdue", []Session{sess("a", -21*time.Second, -21*time.Second, 1)}, "should have been evicted"},
	} {
		st := StreamerState{Threshold: 30 * time.Second, Active: c.active, LastTime: t0.Add(10 * time.Second), SawAny: true}
		if _, err := RestoreStreamer(st); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: %v, want an error containing %q", c.name, err, c.want)
		}
	}
	// A session idle for exactly the threshold is still open.
	st := StreamerState{Threshold: 30 * time.Second, Active: []Session{sess("a", -20*time.Second, -20*time.Second, 1)}, LastTime: t0.Add(10 * time.Second), SawAny: true}
	if _, err := RestoreStreamer(st); err != nil {
		t.Errorf("session idle for exactly the threshold rejected: %v", err)
	}
}
