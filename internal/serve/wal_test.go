// Unit tests for the durable intake journal: segment round-trips,
// rotation, recovery policy (torn tails truncated, corrupt segments
// quarantined), the serve.wal.append / serve.wal.sync /
// serve.wal.rotate / serve.wal.replay fault sites, disk-budget
// shedding and the line→byte lag mapping.

package serve

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

func openTestWAL(t *testing.T, ctx context.Context, cfg WALConfig, sources ...string) (*walManager, map[string]*walRecovered) {
	t.Helper()
	m, rec, err := openWAL(ctx, cfg, sources, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = m.Close() })
	return m, rec
}

// replayAll drains a recovered source's replay reader.
func replayAll(t *testing.T, rec *walRecovered) string {
	t.Helper()
	if len(rec.parts) == 0 {
		return ""
	}
	r := newWALReplay(rec.parts)
	defer r.Close()
	b, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// walFiles lists the journal directory's file names.
func walFiles(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, ent := range entries {
		names = append(names, ent.Name())
	}
	return names
}

// TestWALRoundTrip: journal deliveries and a completion, reopen with
// Resume, and check the scan reproduces the counters, dedup set and
// the exact payload concatenation.
func TestWALRoundTrip(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: dir}, "s1")
	d1, d2 := []byte("ab\ncd\n"), []byte("ef\n")
	if err := m.Append(ctx, "s1", "id-1", d1); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ctx, "s1", "id 2/é", d2); err != nil {
		t.Fatal(err)
	}
	if err := m.Complete(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}

	_, rec := openTestWAL(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
	r := rec["s1"]
	if !r.complete || r.bytes != 9 || r.lines != 3 || r.deliveries != 2 {
		t.Fatalf("recovered complete=%v bytes=%d lines=%d deliveries=%d", r.complete, r.bytes, r.lines, r.deliveries)
	}
	if n, ok := r.seen["id-1"]; !ok || n != int64(len(d1)) {
		t.Fatalf("seen[id-1] = %d, %v", n, ok)
	}
	if n, ok := r.seen["id 2/é"]; !ok || n != int64(len(d2)) {
		t.Fatalf("escaped delivery ID did not round-trip: seen = %v", r.seen)
	}
	if got := replayAll(t, r); got != "ab\ncd\nef\n" {
		t.Fatalf("replay = %q", got)
	}
	if len(r.marks) != 2 || r.marks[0] != (walMark{lines: 2, bytes: 6}) || r.marks[1] != (walMark{lines: 3, bytes: 9}) {
		t.Fatalf("marks = %+v", r.marks)
	}
}

// TestWALRefusesStaleDir: without Resume, a populated journal
// directory is an error, not a silent splice of stale bytes.
func TestWALRefusesStaleDir(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: dir}, "s1")
	if err := m.Append(ctx, "s1", "", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := openWAL(ctx, WALConfig{Dir: dir}, []string{"s1"}, testLogf(t)); err == nil || !strings.Contains(err.Error(), "-resume") {
		t.Fatalf("reopen without resume: %v", err)
	}
	// A segment for an undeclared source is refused even with Resume.
	if _, _, err := openWAL(ctx, WALConfig{Dir: dir, Resume: true}, []string{"other"}, testLogf(t)); err == nil || !strings.Contains(err.Error(), "undeclared") {
		t.Fatalf("undeclared-source open: %v", err)
	}
}

// TestWALRotation: a tiny segment cap forces rotation mid-run; the
// scan folds the whole chain back in order, and zero-length or
// header-only segments (a tear at offset 0, recovered earlier) are
// valid empties.
func TestWALRotation(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	cfg := WALConfig{Dir: dir, SegmentBytes: 192}
	m, _ := openTestWAL(t, ctx, cfg, "s1")
	var want bytes.Buffer
	for i := 0; i < 6; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 40)
		payload[39] = '\n'
		want.Write(payload)
		if err := m.Append(ctx, "s1", "", payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	segs := walFiles(t, dir)
	if len(segs) < 3 {
		t.Fatalf("expected rotation to cut multiple segments, got %v", segs)
	}

	// A trailing zero-length segment (torn header recovered to nothing)
	// and a header-only segment are both valid empties.
	lastSeq := int64(len(segs))
	if err := os.WriteFile(filepath.Join(dir, walSegmentName("s1", lastSeq+1)), nil, 0o644); err != nil {
		t.Fatal(err)
	}

	_, rec := openTestWAL(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
	r := rec["s1"]
	if got := replayAll(t, r); got != want.String() {
		t.Fatalf("replay across rotated segments differs: %d bytes, want %d", len(got), want.Len())
	}
	if r.lastSeq != lastSeq+1 {
		t.Fatalf("lastSeq = %d, want %d (the empty segment)", r.lastSeq, lastSeq+1)
	}
	if len(r.quarantined) != 0 || r.truncated != 0 {
		t.Fatalf("clean chain reported recovery actions: %+v", r)
	}
}

// TestWALTornTail: a record torn at the tail of the final segment is
// truncated back to the last valid checksum and the good prefix
// folds — the torn delivery was never acknowledged.
func TestWALTornTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		tear string
	}{
		// The crash can land mid-header or mid-payload.
		{"mid-payload", walMagic + " d id=late len=100 sha256=0000000000000000000000000000000000000000000000000000000000000000\npartial payload"},
		{"mid-header", walMagic + " d id=late len=1"},
		// len= is outside the checksum: a corrupt length far past EOF is
		// the same short read, and must not size an allocation (2^62
		// made make([]byte, n) panic).
		{"len-past-eof", walMagic + " d id=late len=4611686018427387904 sha256=0000000000000000000000000000000000000000000000000000000000000000\npartial payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			m, _ := openTestWAL(t, ctx, WALConfig{Dir: dir}, "s1")
			if err := m.Append(ctx, "s1", "good", []byte("ok\n")); err != nil {
				t.Fatal(err)
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			seg := filepath.Join(dir, walSegmentName("s1", 1))
			goodSize := int64(0)
			if info, err := os.Stat(seg); err == nil {
				goodSize = info.Size()
			} else {
				t.Fatal(err)
			}
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString(tc.tear); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			_, rec := openTestWAL(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
			r := rec["s1"]
			if got := replayAll(t, r); got != "ok\n" {
				t.Fatalf("replay after torn tail = %q", got)
			}
			if r.truncated != int64(len(tc.tear)) {
				t.Fatalf("truncated %d bytes, want %d", r.truncated, len(tc.tear))
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != goodSize {
				t.Fatalf("segment not truncated back: size %v err %v, want %d", info.Size(), err, goodSize)
			}
			if len(r.quarantined) != 0 {
				t.Fatalf("torn tail quarantined instead of truncated: %v", r.quarantined)
			}
		})
	}
}

// TestWALChecksumQuarantine: a corrupt record before the final
// segment (a broken checksum, or a length past the segment's end)
// quarantines its whole segment and every later one — nothing from
// them folds, the files are set aside with a .quarantined suffix, and
// the log names the last good delivery ID to re-request from.
func TestWALChecksumQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(seg []byte) []byte
	}{
		// A flipped payload byte breaks the record's checksum.
		{"payload-byte", func(seg []byte) []byte {
			seg[len(seg)-2] ^= 0xff
			return seg
		}},
		// len= is outside the checksum: a corrupt length past the end of
		// a middle segment is a tear there, and must not size an
		// allocation (2^62 made make([]byte, n) panic).
		{"len-past-eof", func(seg []byte) []byte {
			return bytes.Replace(seg, []byte(" len=40 "), []byte(" len=4611686018427387904 "), 1)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			// 256-byte cap: each ~140-byte framed delivery lands in its own
			// segment.
			m, _ := openTestWAL(t, ctx, WALConfig{Dir: dir, SegmentBytes: 256}, "s1")
			payload := func(c byte) []byte {
				p := bytes.Repeat([]byte{c}, 40)
				p[39] = '\n'
				return p
			}
			for i, id := range []string{"d0", "d1", "d2"} {
				if err := m.Append(ctx, "s1", id, payload(byte('a'+i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Close(); err != nil {
				t.Fatal(err)
			}
			segs := walFiles(t, dir)
			if len(segs) != 3 {
				t.Fatalf("expected 3 segments, got %v", segs)
			}

			// Corrupt the middle segment: segment 3 — though intact — must not
			// fold past the gap.
			mid := filepath.Join(dir, walSegmentName("s1", 2))
			b, err := os.ReadFile(mid)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(mid, tc.corrupt(b), 0o644); err != nil {
				t.Fatal(err)
			}

			mgr, rec := openTestWAL(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
			r := rec["s1"]
			if got := replayAll(t, r); got != string(payload('a')) {
				t.Fatalf("replay folded past the corrupt segment: %q", got)
			}
			if len(r.quarantined) != 2 {
				t.Fatalf("quarantined %v, want the corrupt segment and its successor", r.quarantined)
			}
			if r.lastGoodID != "d0" {
				t.Fatalf("lastGoodID = %q, want d0", r.lastGoodID)
			}
			for _, q := range r.quarantined {
				if _, err := os.Stat(q); err != nil {
					t.Fatalf("quarantined file missing: %v", err)
				}
			}
			st := mgr.Stats(0, 0)
			if st.QuarantinedSegments != 2 || st.ReplayedBytes != 40 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
			// The next appends go to a fresh segment numbered past the
			// quarantined chain, so a later resume cannot collide.
			if err := mgr.Append(ctx, "s1", "d3", payload('x')); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWALFaultSites drives each registered journal fault site by name
// and checks the failure latches shed mode: the failing delivery is
// refused, and so is everything after it.
func TestWALFaultSites(t *testing.T) {
	line := []byte("x\n")
	for _, tc := range []struct {
		site string
		cfg  WALConfig
		prep int // clean appends before the faulted one
	}{
		{site: "serve.wal.append=hit:2", cfg: WALConfig{}, prep: 1},
		// 256-byte segments: the second append must rotate first.
		{site: "serve.wal.rotate=hit:1", cfg: WALConfig{SegmentBytes: 256}, prep: 1},
	} {
		t.Run(tc.site, func(t *testing.T) {
			set, err := faultpoint.Parse(tc.site)
			if err != nil {
				t.Fatal(err)
			}
			ctx := faultpoint.With(context.Background(), set)
			cfg := tc.cfg
			cfg.Dir = t.TempDir()
			m, _ := openTestWAL(t, ctx, cfg, "s1")
			for i := 0; i < tc.prep; i++ {
				if err := m.Append(ctx, "s1", "", bytes.Repeat([]byte("p"), 40)); err != nil {
					t.Fatalf("prep append: %v", err)
				}
			}
			if err := m.Append(ctx, "s1", "", line); err == nil || !faultpoint.IsFault(err) {
				t.Fatalf("faulted append: %v, want injected fault", err)
			}
			st := m.Stats(0, 0)
			if !st.Shedding || st.ShedReason == "" {
				t.Fatalf("fault did not latch shed: %+v", st)
			}
			if err := m.Append(ctx, "s1", "", line); !errors.Is(err, ErrWALShed) {
				t.Fatalf("post-shed append: %v, want ErrWALShed", err)
			}
			if err := m.Complete(ctx, "s1"); !errors.Is(err, ErrWALShed) {
				t.Fatalf("post-shed complete: %v, want ErrWALShed", err)
			}
		})
	}
}

// TestWALSyncFaultInline: with a sync cadence armed, completion syncs
// inline, so a serve.wal.sync fault there fails the Complete call
// itself and latches shed. (The cadence threshold is set out of reach
// so the only sync is completion's.)
func TestWALSyncFaultInline(t *testing.T) {
	set, err := faultpoint.Parse("serve.wal.sync=hit:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: t.TempDir(), SyncBytes: 1 << 30}, "s1")
	if err := m.Append(ctx, "s1", "", []byte("x\n")); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := m.Complete(ctx, "s1"); err == nil || !faultpoint.IsFault(err) {
		t.Fatalf("faulted complete: %v, want injected fault", err)
	}
	if err := m.Append(ctx, "s1", "", []byte("y\n")); !errors.Is(err, ErrWALShed) {
		t.Fatalf("post-shed append: %v, want ErrWALShed", err)
	}
}

// TestWALSyncFaultBackground: the cadence sync runs off the append
// path, so the faulted fsync acknowledges its own delivery but
// latches shed before long — later deliveries are refused.
func TestWALSyncFaultBackground(t *testing.T) {
	set, err := faultpoint.Parse("serve.wal.sync=hit:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: t.TempDir(), SyncBytes: 1}, "s1")
	if err := m.Append(ctx, "s1", "", []byte("x\n")); err != nil {
		t.Fatalf("append queueing the doomed sync: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := m.Stats(0, 0); st.Shedding {
			if !strings.Contains(st.ShedReason, "sync fault") {
				t.Fatalf("shed reason %q, want the sync fault", st.ShedReason)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background sync fault never latched shed")
		}
		time.Sleep(time.Millisecond)
	}
	if err := m.Append(ctx, "s1", "", []byte("y\n")); !errors.Is(err, ErrWALShed) {
		t.Fatalf("post-shed append: %v, want ErrWALShed", err)
	}
	if err := m.Complete(ctx, "s1"); !errors.Is(err, ErrWALShed) {
		t.Fatalf("post-shed complete: %v, want ErrWALShed", err)
	}
}

// TestWALReplayFault: a serve.wal.replay fault at restart fails the
// open outright — recovery never silently skips journal bytes.
func TestWALReplayFault(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: dir}, "s1")
	if err := m.Append(ctx, "s1", "", []byte("x\n")); err != nil {
		t.Fatal(err)
	}
	if err := m.Close(); err != nil {
		t.Fatal(err)
	}
	set, err := faultpoint.Parse("serve.wal.replay=hit:1")
	if err != nil {
		t.Fatal(err)
	}
	fctx := faultpoint.With(context.Background(), set)
	if _, _, err := openWAL(fctx, WALConfig{Dir: dir, Resume: true}, []string{"s1"}, testLogf(t)); err == nil || !faultpoint.IsFault(err) {
		t.Fatalf("faulted replay open: %v, want injected fault", err)
	}
}

// TestWALDiskBudget: an append that would push the on-disk footprint
// past the budget sheds instead of writing.
func TestWALDiskBudget(t *testing.T) {
	ctx := context.Background()
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: t.TempDir(), DiskBudgetBytes: 256}, "s1")
	if err := m.Append(ctx, "s1", "", []byte("small\n")); err != nil {
		t.Fatal(err)
	}
	if err := m.Append(ctx, "s1", "", bytes.Repeat([]byte("x"), 512)); !errors.Is(err, ErrWALShed) {
		t.Fatalf("over-budget append: %v, want ErrWALShed", err)
	}
	st := m.Stats(0, 0)
	if !st.Shedding || !strings.Contains(st.ShedReason, "disk budget") {
		t.Fatalf("budget exhaustion did not shed: %+v", st)
	}
}

// TestWALCoveredBytes: the line→byte lag mapping walks sources in
// declared order and rounds a partially folded source down to its
// last delivery boundary.
func TestWALCoveredBytes(t *testing.T) {
	ctx := context.Background()
	m, _ := openTestWAL(t, ctx, WALConfig{Dir: t.TempDir()}, "s1", "s2")
	// s1: 6 bytes / 2 lines, then 3 bytes / 1 line. s2: 6 bytes / 3 lines.
	for _, d := range []struct {
		src     string
		payload string
	}{
		{"s1", "ab\ncd\n"},
		{"s1", "ef\n"},
		{"s2", "g\nh\ni\n"},
	} {
		if err := m.Append(ctx, d.src, "", []byte(d.payload)); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		lines, covered int64
	}{
		{0, 0},
		{1, 0},  // mid-delivery: rounds down to nothing
		{2, 6},  // first s1 delivery boundary
		{3, 9},  // all of s1
		{4, 9},  // one line into s2's single delivery: rounds down
		{6, 15}, // everything
	} {
		st := m.Stats(tc.lines, 0)
		if lag := st.JournaledBytes - st.LagBytes; lag != tc.covered {
			t.Errorf("covered(%d lines) = %d bytes, want %d", tc.lines, lag, tc.covered)
		}
		if st.CheckpointLagBytes != st.JournaledBytes {
			t.Errorf("checkpoint lag at 0 lines = %d, want all %d journaled bytes", st.CheckpointLagBytes, st.JournaledBytes)
		}
	}
}
