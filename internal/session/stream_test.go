package session

import (
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"
	"unsafe"

	"fullweb/internal/weblog"
)

func TestStreamerMatchesBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	records := randomRecords(rng, 2000, 20, 500000)
	sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })

	streamer, err := NewStreamer(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var streamed []Session
	for _, r := range records {
		closed, err := streamer.Observe(r)
		if err != nil {
			t.Fatal(err)
		}
		streamed = append(streamed, closed...)
	}
	streamed = append(streamed, streamer.Flush()...)

	batch, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(streamed) != len(batch) {
		t.Fatalf("streamed %d sessions, batch %d", len(streamed), len(batch))
	}
	count := map[Session]int{}
	for _, s := range batch {
		count[s]++
	}
	for _, s := range streamed {
		count[s]--
	}
	for s, c := range count {
		if c != 0 {
			t.Fatalf("session multiset mismatch at %+v (%+d)", s, c)
		}
	}
}

func TestStreamerEmitsEagerly(t *testing.T) {
	streamer, err := NewStreamer(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamer.Observe(rec("a", 0, 200, 5)); err != nil {
		t.Fatal(err)
	}
	if streamer.ActiveSessions() != 1 {
		t.Fatalf("active = %d", streamer.ActiveSessions())
	}
	// 20 minutes later, a's session must be emitted on b's record.
	closed, err := streamer.Observe(rec("b", 1200+1, 200, 7))
	if err != nil {
		t.Fatal(err)
	}
	if len(closed) != 1 || closed[0].Host != "a" || closed[0].Bytes != 5 {
		t.Fatalf("closed = %+v", closed)
	}
	if streamer.ActiveSessions() != 1 {
		t.Fatalf("active after eviction = %d", streamer.ActiveSessions())
	}
	rest := streamer.Flush()
	if len(rest) != 1 || rest[0].Host != "b" {
		t.Fatalf("flush = %+v", rest)
	}
	if streamer.ActiveSessions() != 0 {
		t.Fatal("flush must clear state")
	}
}

func TestStreamerRejectsOutOfOrder(t *testing.T) {
	streamer, err := NewStreamer(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := streamer.Observe(rec("a", 100, 200, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := streamer.Observe(rec("a", 50, 200, 1)); err == nil {
		t.Fatal("out-of-order record should error")
	}
}

func TestStreamerThresholdValidation(t *testing.T) {
	if _, err := NewStreamer(0); err == nil {
		t.Fatal("zero threshold should error")
	}
}

func TestStreamerBoundedMemory(t *testing.T) {
	// A long log from few hosts must not accumulate state: with 5 hosts
	// the active map stays at <= 5 regardless of record count.
	streamer, err := NewStreamer(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := 0; i < 50000; i++ {
		host := "h" + strconv.Itoa(i%5)
		closed, err := streamer.Observe(rec(host, int64(i*60), 200, 1))
		if err != nil {
			t.Fatal(err)
		}
		total += len(closed)
		if streamer.ActiveSessions() > 5 {
			t.Fatalf("active sessions grew to %d", streamer.ActiveSessions())
		}
	}
	total += len(streamer.Flush())
	// Every record is its own session (gaps of 60s*5 hosts = 300s = the
	// threshold; gap > threshold is required to split, 300 == threshold
	// keeps them together). Each host's consecutive requests are 300s
	// apart exactly, which does NOT split.
	if total != 5 {
		t.Fatalf("total sessions = %d, want 5", total)
	}
}

// Property: for any time-ordered input, streamer output equals batch
// output as a multiset.
func TestStreamerEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, 1+rng.Intn(300), 1+rng.Intn(8), 300000)
		sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })
		streamer, err := NewStreamer(10 * time.Minute)
		if err != nil {
			return false
		}
		var streamed []Session
		for _, r := range records {
			closed, err := streamer.Observe(r)
			if err != nil {
				return false
			}
			streamed = append(streamed, closed...)
		}
		streamed = append(streamed, streamer.Flush()...)
		batch, err := Sessionize(records, 10*time.Minute)
		if err != nil {
			return false
		}
		if len(streamed) != len(batch) {
			return false
		}
		count := map[Session]int{}
		for _, s := range batch {
			count[s]++
		}
		for _, s := range streamed {
			count[s]--
		}
		for _, c := range count {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestStreamerHostDoesNotAliasRecord: the chunked reader hands out
// records whose strings slice one text per chunk, so an open session
// must hold its own copy of the host — never a view into the record's
// line, which would pin the whole chunk for the session's lifetime.
func TestStreamerHostDoesNotAliasRecord(t *testing.T) {
	line := "client.example.org - - [12/Jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 100"
	rec, err := weblog.ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	base := uintptr(unsafe.Pointer(unsafe.StringData(line)))
	inLine := func(s string) bool {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		return p >= base && p < base+uintptr(len(line))
	}
	if !inLine(rec.Host) {
		t.Fatal("precondition: the parsed host should be a view into its line")
	}
	s, err := NewStreamer(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ { // open, then absorb into the same session
		if _, err := s.Observe(rec); err != nil {
			t.Fatal(err)
		}
		if len(s.active) != 1 {
			t.Fatalf("%d open sessions, want 1", len(s.active))
		}
		for key, n := range s.active {
			if key != rec.Host || n.Host != rec.Host {
				t.Fatalf("open session keyed %q with host %q, want %q", key, n.Host, rec.Host)
			}
			if inLine(key) || inLine(n.Host) {
				t.Fatal("the open session's host or map key shares storage with the record's line")
			}
		}
	}
	closed := s.Flush()
	if len(closed) != 1 || closed[0].Host != rec.Host || inLine(closed[0].Host) {
		t.Fatalf("flushed %+v: want one session of host %q that owns its host", closed, rec.Host)
	}
}
