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

// streamAll feeds records through a fresh streamer by reference and
// returns every session it closes, the flushed ones last.
func streamAll(t *testing.T, records []weblog.Record) []Session {
	t.Helper()
	s, err := NewStreamer(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	var out []Session
	for i := range records {
		closed, err := s.ObserveClampedRef(&records[i])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, closed...)
	}
	return append(out, s.Flush()...)
}

// TestStreamerHostRuns covers runs of one host, where the open session
// a record extends is already the tail of the last-touch list: a tail
// host that returns after its session expired opens a new one, and a
// tail host interleaved with others keeps one session per host and gap.
func TestStreamerHostRuns(t *testing.T) {
	const gap = int64(DefaultThreshold / time.Second)
	expired := []weblog.Record{
		rec("a", 0, 200, 1), rec("a", 10, 200, 2),
		rec("a", 10+gap+1, 404, 4), rec("a", 10+gap+2, 200, 8),
	}
	got := streamAll(t, expired)
	want := []Session{
		{Host: "a", Start: time.Unix(0, 0).UTC(), End: time.Unix(10, 0).UTC(), Requests: 2, Bytes: 3},
		{Host: "a", Start: time.Unix(10+gap+1, 0).UTC(), End: time.Unix(10+gap+2, 0).UTC(), Requests: 2, Bytes: 12, Errors: 1},
	}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("expired tail host: sessions %+v, want %+v", got, want)
	}

	var interleaved []weblog.Record
	sec := int64(0)
	for i, h := range []string{"a", "a", "b", "a", "a", "c", "b", "b", "a", "a", "c", "a"} {
		sec += int64(i%4) * gap / 3 // gaps of 0, 1/3, 2/3 and the whole threshold
		if i == 9 {
			sec += gap + 1 // a's run is cut by an expiry
		}
		interleaved = append(interleaved, rec(h, sec, 200+100*(i%3), int64(i)))
	}
	batch, err := Sessionize(interleaved, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	streamed := streamAll(t, interleaved)
	sortSessions(streamed)
	if len(streamed) != len(batch) {
		t.Fatalf("interleaved hosts: streamed %d sessions, batch %d", len(streamed), len(batch))
	}
	for i := range batch {
		if streamed[i] != batch[i] {
			t.Fatalf("interleaved hosts: session %d is %+v, batch %+v", i, streamed[i], batch[i])
		}
	}
}

// TestStreamerObserveAllocs: a record of an open session allocates
// nothing, whether its session is already the tail (a run of one
// host) or moves to the tail (hosts interleaved).
func TestStreamerObserveAllocs(t *testing.T) {
	s, err := NewStreamer(DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	a, b := rec("a", 0, 200, 1), rec("b", 0, 200, 1)
	for _, r := range []*weblog.Record{&a, &b} {
		if _, err := s.ObserveClampedRef(r); err != nil {
			t.Fatal(err)
		}
	}
	sec := int64(0)
	step := func(r *weblog.Record) {
		sec++
		r.Time = time.Unix(sec, 0).UTC()
		if _, err := s.ObserveClampedRef(r); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(200, func() { step(&a) }); n != 0 {
		t.Errorf("repeated host: %v allocs per record, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() { step(&b); step(&a) }); n != 0 {
		t.Errorf("alternating hosts: %v allocs per pair of records, want 0", n)
	}
}
