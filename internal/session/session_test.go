package session

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"fullweb/internal/weblog"
)

func rec(host string, sec int64, status int, bytes int64) weblog.Record {
	return weblog.Record{
		Host: host, Time: time.Unix(sec, 0).UTC(),
		Method: "GET", Path: "/", Proto: "HTTP/1.0",
		Status: status, Bytes: bytes,
	}
}

func TestSessionizeSingleHost(t *testing.T) {
	records := []weblog.Record{
		rec("a", 0, 200, 10),
		rec("a", 100, 200, 20),
		rec("a", 100+1801, 404, 5), // gap > 30 min: new session
		rec("a", 100+1801+60, 200, 15),
	}
	sessions, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("sessions = %d, want 2", len(sessions))
	}
	s0, s1 := sessions[0], sessions[1]
	if s0.Requests != 2 || s0.Bytes != 30 || s0.Errors != 0 {
		t.Fatalf("s0 = %+v", s0)
	}
	if s0.Duration() != 100*time.Second {
		t.Fatalf("s0 duration = %v", s0.Duration())
	}
	if s1.Requests != 2 || s1.Bytes != 20 || s1.Errors != 1 {
		t.Fatalf("s1 = %+v", s1)
	}
}

func TestSessionizeGapExactlyThreshold(t *testing.T) {
	// Boundary semantics, pinned on both sides: a gap of exactly the
	// threshold stays in-session (the split condition is strictly
	// greater, matching the package doc), while one second more splits.
	atThreshold := []weblog.Record{
		rec("a", 0, 200, 1),
		rec("a", 1800, 200, 1),
	}
	sessions, err := Sessionize(atThreshold, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 {
		t.Fatalf("gap == threshold: sessions = %d, want 1", len(sessions))
	}
	if sessions[0].Requests != 2 {
		t.Fatalf("gap == threshold: requests = %d, want 2", sessions[0].Requests)
	}
	beyondThreshold := []weblog.Record{
		rec("a", 0, 200, 1),
		rec("a", 1801, 200, 1),
	}
	if sessions, err = Sessionize(beyondThreshold, DefaultThreshold); err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 2 {
		t.Fatalf("gap == threshold+1s: sessions = %d, want 2", len(sessions))
	}
}

func TestSessionizeMultipleHosts(t *testing.T) {
	records := []weblog.Record{
		rec("a", 0, 200, 1),
		rec("b", 1, 200, 1),
		rec("a", 2, 200, 1),
		rec("b", 5000, 200, 1),
	}
	sessions, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 3 {
		t.Fatalf("sessions = %d, want 3 (a:1, b:2)", len(sessions))
	}
	// Sorted by start time.
	for i := 1; i < len(sessions); i++ {
		if sessions[i].Start.Before(sessions[i-1].Start) {
			t.Fatal("sessions not sorted by start")
		}
	}
}

// TestSessionizeDeterministicOrder: with many hosts sharing the same
// start second, the output order must be identical across calls (map
// iteration order must not leak through — regression for a flake where
// tied-start ordering changed run to run and perturbed downstream
// floating-point sums).
func TestSessionizeDeterministicOrder(t *testing.T) {
	var records []weblog.Record
	for i := 0; i < 200; i++ {
		records = append(records, rec(fmt.Sprintf("h%03d", i), 0, 200, 1))
	}
	first, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 5; round++ {
		again, err := Sessionize(records, DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		for i := range first {
			if again[i] != first[i] {
				t.Fatalf("round %d: session %d = %+v, want %+v", round, i, again[i], first[i])
			}
		}
	}
	for i := 1; i < len(first); i++ {
		if first[i].Host <= first[i-1].Host {
			t.Fatalf("tied-start sessions not host-ordered: %q after %q", first[i].Host, first[i-1].Host)
		}
	}
}

func TestSessionizeUnsortedInput(t *testing.T) {
	records := []weblog.Record{
		rec("a", 100, 200, 2),
		rec("a", 0, 200, 1),
	}
	sessions, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	if len(sessions) != 1 || sessions[0].Requests != 2 {
		t.Fatalf("sessions = %+v", sessions)
	}
	if sessions[0].Start.Unix() != 0 || sessions[0].End.Unix() != 100 {
		t.Fatalf("bounds = %v..%v", sessions[0].Start, sessions[0].End)
	}
}

func TestSessionizeErrors(t *testing.T) {
	if _, err := Sessionize(nil, DefaultThreshold); !errors.Is(err, ErrNoRecords) {
		t.Error("empty input should return ErrNoRecords")
	}
	if _, err := Sessionize([]weblog.Record{rec("a", 0, 200, 1)}, 0); !errors.Is(err, ErrBadThreshold) {
		t.Error("zero threshold should return ErrBadThreshold")
	}
}

func TestThresholdMonotonicityProperty(t *testing.T) {
	// Property (studied in the paper's earlier work): a larger threshold
	// never yields more sessions.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(200)
		records := make([]weblog.Record, n)
		for i := range records {
			host := string(rune('a' + rng.Intn(5)))
			records[i] = rec(host, int64(rng.Intn(100000)), 200, 1)
		}
		s1, err1 := Sessionize(records, 5*time.Minute)
		s2, err2 := Sessionize(records, 30*time.Minute)
		if err1 != nil || err2 != nil {
			return false
		}
		return len(s2) <= len(s1)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestRequestConservationProperty(t *testing.T) {
	// Property: sessionization conserves requests and bytes.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		records := make([]weblog.Record, n)
		var wantBytes int64
		for i := range records {
			b := int64(rng.Intn(1000))
			records[i] = rec(string(rune('a'+rng.Intn(7))), int64(rng.Intn(50000)), 200, b)
			wantBytes += b
		}
		sessions, err := Sessionize(records, 10*time.Minute)
		if err != nil {
			return false
		}
		gotReq := 0
		var gotBytes int64
		for _, s := range sessions {
			gotReq += s.Requests
			gotBytes += s.Bytes
		}
		return gotReq == n && gotBytes == wantBytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestStartSecondsAndInitiatedPerSecond(t *testing.T) {
	records := []weblog.Record{
		rec("a", 10, 200, 1),
		rec("b", 10, 200, 1),
		rec("c", 12, 200, 1),
	}
	sessions, err := Sessionize(records, DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	secs := StartSeconds(sessions)
	if len(secs) != 3 || secs[0] != 10 || secs[1] != 10 || secs[2] != 12 {
		t.Fatalf("secs = %v", secs)
	}
	series, err := InitiatedPerSecond(sessions)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 1}
	if len(series) != len(want) {
		t.Fatalf("series = %v", series)
	}
	for i := range want {
		if series[i] != want[i] {
			t.Fatalf("series[%d] = %v, want %v", i, series[i], want[i])
		}
	}
}

func TestIntraSessionExtractors(t *testing.T) {
	records := []weblog.Record{
		rec("a", 0, 200, 100),
		rec("a", 50, 404, 200),
		rec("b", 10, 200, 9),
	}
	sessions, _ := Sessionize(records, DefaultThreshold)
	durs := Durations(sessions)
	reqs := RequestCounts(sessions)
	bytesList := ByteCounts(sessions)
	if len(durs) != 2 {
		t.Fatalf("%d sessions", len(durs))
	}
	// Session a: 50 s, 2 requests, 300 bytes; session b: 0 s, 1 request.
	foundA := false
	for i := range sessions {
		if sessions[i].Host == "a" {
			foundA = true
			if durs[i] != 50 || reqs[i] != 2 || bytesList[i] != 300 {
				t.Fatalf("session a stats: %v %v %v", durs[i], reqs[i], bytesList[i])
			}
		}
	}
	if !foundA {
		t.Fatal("session a missing")
	}
	pos := PositiveOnly(durs)
	if len(pos) != 1 || pos[0] != 50 {
		t.Fatalf("PositiveOnly = %v", pos)
	}
}
