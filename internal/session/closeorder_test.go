package session

import (
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

// tieThreshold is the inactivity threshold of the close-order
// properties: short, so a few hundred records close many sessions.
const tieThreshold = 30 * time.Second

// tieHeavyTrace returns a time-ordered trace in which most timestamps
// are shared by several records from distinct hosts, and many sessions
// of equal End close in the same eviction batch.
func tieHeavyTrace(rng *rand.Rand, n, hosts int) []weblog.Record {
	out := make([]weblog.Record, 0, n)
	var sec int64
	for len(out) < n {
		switch r := rng.Intn(10); {
		case r < 6:
			sec++
		case r < 9:
			sec += int64(rng.Intn(5))
		default:
			sec += int64(tieThreshold/time.Second) + int64(rng.Intn(20))
		}
		// One burst per second, each host at most once in it.
		for _, h := range rng.Perm(hosts)[:1+rng.Intn(hosts)] {
			status := 200
			if rng.Intn(8) == 0 {
				status = 404
			}
			out = append(out, rec("h"+strconv.Itoa(h), sec, status, int64(rng.Intn(5000))))
		}
	}
	return out
}

// closeSequence runs a trace through s and returns every closed
// session in emission order, the Flush included.
func closeSequence(t *testing.T, s *Streamer, recs []weblog.Record) []Session {
	t.Helper()
	var out []Session
	for _, r := range recs {
		closed, err := s.Observe(r)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closed...)
	}
	return append(out, s.Flush()...)
}

// TestCloseOrderIgnoresTieArrivalOrder: permuting the arrival order of
// equal-timestamp records from distinct hosts leaves the closed-session
// sequence unchanged — close order is a function of the sessions, not
// of which tied record the log happened to write first.
func TestCloseOrderIgnoresTieArrivalOrder(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		recs := tieHeavyTrace(rng, 400, 12)
		base, err := NewStreamer(tieThreshold)
		if err != nil {
			t.Fatal(err)
		}
		want := closeSequence(t, base, recs)
		for trial := 0; trial < 5; trial++ {
			shuffled := append([]weblog.Record(nil), recs...)
			for i := 0; i < len(shuffled); {
				j := i
				for j < len(shuffled) && shuffled[j].Time.Equal(shuffled[i].Time) {
					j++
				}
				tie := shuffled[i:j]
				rng.Shuffle(len(tie), func(a, b int) { tie[a], tie[b] = tie[b], tie[a] })
				i = j
			}
			s, err := NewStreamer(tieThreshold)
			if err != nil {
				t.Fatal(err)
			}
			if got := closeSequence(t, s, shuffled); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d trial %d: close sequence depends on tie arrival order", seed, trial)
			}
		}
	}
}

// TestCheckpointAtEveryIndex: on a tie-heavy trace, checkpointing the
// streamer after any record and restoring it yields exactly the
// uninterrupted run — same sessions, same batches, same order, same
// counters — and the restored state re-captures identically.
func TestCheckpointAtEveryIndex(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := tieHeavyTrace(rng, 300, 10)
	observeAll := func(s *Streamer, part []weblog.Record) [][]Session {
		var batches [][]Session
		for _, r := range part {
			closed, err := s.Observe(r)
			if err != nil {
				t.Fatal(err)
			}
			batches = append(batches, closed)
		}
		return batches
	}
	whole, err := NewStreamer(tieThreshold)
	if err != nil {
		t.Fatal(err)
	}
	want := observeAll(whole, recs)
	wantFlush := whole.Flush()
	for cut := 0; cut <= len(recs); cut++ {
		head, err := NewStreamer(tieThreshold)
		if err != nil {
			t.Fatal(err)
		}
		got := observeAll(head, recs[:cut])
		st := head.State()
		s, err := RestoreStreamer(st)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !reflect.DeepEqual(s.State(), st) {
			t.Fatalf("cut %d: restored state re-captures differently", cut)
		}
		at, ok := head.NextExpiry()
		if rat, rok := s.NextExpiry(); !rat.Equal(at) || rok != ok {
			t.Fatalf("cut %d: frontier %v/%v restored as %v/%v", cut, at, ok, rat, rok)
		}
		got = append(got, observeAll(s, recs[cut:])...)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("cut %d: resumed batches differ from the uninterrupted run", cut)
		}
		if !reflect.DeepEqual(s.Flush(), wantFlush) {
			t.Fatalf("cut %d: resumed flush differs", cut)
		}
		if s.OpenedTotal() != whole.OpenedTotal() || s.PeakActiveSessions() != whole.PeakActiveSessions() {
			t.Fatalf("cut %d: counters opened %d/%d peak %d/%d", cut,
				s.OpenedTotal(), whole.OpenedTotal(), s.PeakActiveSessions(), whole.PeakActiveSessions())
		}
	}
}

// TestNextExpiryExact: NextExpiry is the exact frontier, not a bound.
// A record closes sessions if and only if it is stamped after the
// frontier, the first session it closes ends exactly one threshold
// before the frontier, and no session is open when none is reported.
func TestNextExpiryExact(t *testing.T) {
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, err := NewStreamer(tieThreshold)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range tieHeavyTrace(rng, 300, 8) {
			at, ok := s.NextExpiry()
			if ok != (s.ActiveSessions() > 0) {
				t.Fatalf("seed %d record %d: frontier reported %v with %d open sessions", seed, i, ok, s.ActiveSessions())
			}
			closed, err := s.Observe(r)
			if err != nil {
				t.Fatal(err)
			}
			if due := ok && r.Time.After(at); due != (len(closed) > 0) {
				t.Fatalf("seed %d record %d at %v: frontier %v (set %v) but %d sessions closed", seed, i, r.Time, at, ok, len(closed))
			}
			if len(closed) > 0 && !closed[0].End.Add(tieThreshold).Equal(at) {
				t.Fatalf("seed %d record %d: first close ends %v, frontier %v", seed, i, closed[0].End, at)
			}
		}
	}
}
