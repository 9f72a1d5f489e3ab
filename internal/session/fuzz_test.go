package session

import (
	"fmt"
	"sort"
	"strings"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

// FuzzStreamerBatchEquivalence feeds arbitrary CLF text through both
// sessionizers and requires the exact same session multiset: the
// incremental Streamer (time-ordered Observe + Flush) must be
// indistinguishable from the batch Sessionize on any parseable trace.
// This is the PR 4 streaming-equals-batch invariant at its root — if it
// holds here, the stream engine's session totals cannot drift.
func FuzzStreamerBatchEquivalence(f *testing.F) {
	f.Add(`h1 - - [12/Jan/2004:10:30:45 -0500] "GET /a HTTP/1.0" 200 100
h1 - - [12/Jan/2004:10:35:00 -0500] "GET /b HTTP/1.0" 200 50
h2 - - [12/Jan/2004:10:36:00 -0500] "GET /c HTTP/1.0" 404 -`)
	// Gap of exactly the threshold stays in-session; one second more
	// splits.
	f.Add(`h - - [12/Jan/2004:10:00:00 -0500] "GET / HTTP/1.0" 200 1
h - - [12/Jan/2004:10:30:00 -0500] "GET / HTTP/1.0" 200 1
h - - [12/Jan/2004:11:00:01 -0500] "GET / HTTP/1.0" 200 1`)
	// Interleaved hosts with ties on the same second.
	f.Add(`a - - [12/Jan/2004:09:00:00 -0500] "GET /1 HTTP/1.0" 200 10
b - - [12/Jan/2004:09:00:00 -0500] "GET /2 HTTP/1.0" 500 20
a - - [12/Jan/2004:09:00:00 -0500] "GET /3 HTTP/1.0" 200 30
b - - [12/Jan/2004:12:00:00 -0500] "GET /4 HTTP/1.0" 200 40`)
	f.Add("not a log line\n\n")
	// Long runs of one host, each crossing the threshold once and
	// broken by another host, so a run of the list's tail meets expiry.
	var runs strings.Builder
	at := time.Date(2004, 1, 12, 9, 0, 0, 0, time.UTC)
	for i := 0; i < 90; i++ {
		host := "run"
		switch {
		case i%30 == 29:
			host = "other"
		case i == 45:
			at = at.Add(DefaultThreshold + time.Second)
		}
		fmt.Fprintf(&runs, "%s - - [%s] \"GET /%d HTTP/1.0\" 200 %d\n", host, at.Format("02/Jan/2006:15:04:05 -0700"), i, i)
		at = at.Add(time.Duration(i%3) * time.Minute)
	}
	f.Add(runs.String())
	f.Fuzz(func(t *testing.T, text string) {
		records, _, err := weblog.ReadAll(strings.NewReader(text))
		if err != nil || len(records) == 0 {
			return
		}
		// The streamer requires non-decreasing time order, as access logs
		// are written; sort stably so equal timestamps keep input order.
		sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })

		batch, err := Sessionize(records, DefaultThreshold)
		if err != nil {
			t.Fatalf("batch sessionize failed on parseable input: %v", err)
		}
		streamer, err := NewStreamer(DefaultThreshold)
		if err != nil {
			t.Fatal(err)
		}
		var streamed []Session
		for _, r := range records {
			closed, err := streamer.Observe(r)
			if err != nil {
				t.Fatalf("streamer rejected time-ordered record: %v", err)
			}
			streamed = append(streamed, closed...)
		}
		streamed = append(streamed, streamer.Flush()...)

		if len(streamed) != len(batch) {
			t.Fatalf("streamed %d sessions, batch %d", len(streamed), len(batch))
		}
		// Session contains time.Time; normalize to a comparable key (a
		// timestamp time.Parse decodes carries a fresh FixedZone when
		// its offset is off the hour, so == on Session would compare
		// locations, not instants).
		type key struct {
			host       string
			start, end int64
			requests   int
			bytes      int64
			errors     int
		}
		mk := func(s Session) key {
			return key{s.Host, s.Start.UnixNano(), s.End.UnixNano(), s.Requests, s.Bytes, s.Errors}
		}
		count := map[key]int{}
		for _, s := range batch {
			count[mk(s)]++
		}
		for _, s := range streamed {
			count[mk(s)]--
		}
		for k, c := range count {
			if c != 0 {
				t.Fatalf("session multiset mismatch at %+v (%+d)", k, c)
			}
		}
	})
}
