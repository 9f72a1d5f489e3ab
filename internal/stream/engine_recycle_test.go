package stream

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"fullweb/internal/weblog"
)

// TestEngineLongSessionAcrossRecycledChunks: the chunked reader reuses
// each chunk's record slab once the fold is done with it, and the
// records' strings slice one text per chunk. A session that stays open
// across many chunks must keep its host intact at every snapshot, and
// the output must be the one a single-chunk read produces.
func TestEngineLongSessionAcrossRecycledChunks(t *testing.T) {
	const longHost = "long-lived.example.org"
	base := time.Date(2004, time.January, 12, 10, 0, 0, 0, time.UTC)
	var text bytes.Buffer
	for i := 0; i < 40; i++ {
		at := base.Add(time.Duration(i) * time.Minute)
		for _, rec := range []weblog.Record{
			{Host: longHost, Time: at, Method: "GET", Path: fmt.Sprintf("/long/%d", i), Proto: "HTTP/1.0", Status: 200, Bytes: 100},
			{Host: fmt.Sprintf("h%d.example.org", i), Time: at.Add(time.Second), Method: "GET", Path: "/", Proto: "HTTP/1.0", Status: 200, Bytes: 10},
		} {
			text.WriteString(rec.FormatCLF())
			text.WriteByte('\n')
		}
	}
	chunk := weblog.ChunkConfig{Lines: 4, Window: 2}
	if chunks := 80 / chunk.Lines; chunks < chunk.Window+2 {
		t.Fatalf("fixture spans %d chunks, want >= window+2 = %d", chunks, chunk.Window+2)
	}

	run := func(chunk weblog.ChunkConfig, check func(*Engine)) string {
		t.Helper()
		cfg := DefaultConfig()
		cfg.SnapshotEvery = 5 * time.Minute
		cfg.Chunk = chunk
		cfg.Workers = 2
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		final, err := e.ProcessCtx(context.Background(), bytes.NewReader(text.Bytes()), func(s *Snapshot) error {
			check(e)
			return s.Render(&out)
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := final.Render(&out); err != nil {
			t.Fatal(err)
		}
		return out.String()
	}
	snapshots := 0
	got := run(chunk, func(e *Engine) {
		snapshots++
		found := false
		for _, s := range e.streamer.State().Active {
			if s.Host == longHost {
				found = true
			}
		}
		if !found {
			t.Fatalf("snapshot %d: no open session of %q", snapshots, longHost)
		}
	})
	if snapshots < 5 {
		t.Fatalf("%d periodic snapshots, want several while the session is open", snapshots)
	}
	want := run(weblog.ChunkConfig{Lines: 1 << 16, Window: 1}, func(*Engine) {})
	if got != want {
		t.Fatalf("recycled small chunks changed the output:\n%s\nwant (one chunk):\n%s", got, want)
	}
}
