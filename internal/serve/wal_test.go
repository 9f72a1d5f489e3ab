// Unit tests for the durable intake journal: segment round-trips,
// rotation, recovery policy (torn tails truncated, corrupt segments
// quarantined), the serve.wal.append / serve.wal.sync /
// serve.wal.rotate / serve.wal.replay fault sites, disk-budget
// shedding, the wal2 header checksum and chain check, and the
// line→byte lag mapping. Deliveries are journaled through the intake,
// which owns the source offsets the journal records.

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
)

func testLogf(t *testing.T) func(string, ...any) {
	return func(format string, args ...any) { t.Logf(format, args...) }
}

// openTestIntake opens the journal in cfg and attaches it to a fresh
// intake over sources, as Run does; both close at cleanup.
func openTestIntake(t *testing.T, ctx context.Context, cfg WALConfig, sources ...string) *intake {
	t.Helper()
	in, err := newIntake(sources, 1<<20, obs.SystemClock(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	m, leds, err := openWAL(ctx, cfg, sources, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	in.attachWAL(m, leds)
	t.Cleanup(func() {
		in.closeReaders()
		_ = m.Close()
	})
	return in
}

// mustAppend journals one delivery through the intake.
func mustAppend(t *testing.T, ctx context.Context, in *intake, source, id string, payload []byte) {
	t.Helper()
	if err := in.append(ctx, source, id, payload, false); err != nil {
		t.Fatal(err)
	}
}

// replayAll reads a ledger's unread bytes back.
func replayAll(t testing.TB, led *ledger) string {
	t.Helper()
	var out []byte
	buf := make([]byte, 7) // odd-sized, so reads straddle extents
	for {
		n, err := led.readInto(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n == 0 {
			led.closeReader()
			return string(out)
		}
		out = append(out, buf[:n]...)
	}
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
	in := openTestIntake(t, ctx, WALConfig{Dir: dir}, "s1")
	d1, d2 := []byte("ab\ncd\n"), []byte("ef\n")
	mustAppend(t, ctx, in, "s1", "id-1", d1)
	mustAppend(t, ctx, in, "s1", "id 2/é", d2)
	if err := in.completeSource(ctx, "s1"); err != nil {
		t.Fatal(err)
	}
	if err := in.wal.Close(); err != nil {
		t.Fatal(err)
	}

	r := openTestIntake(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1").sources[0].ledger
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
	in := openTestIntake(t, ctx, WALConfig{Dir: dir}, "s1")
	mustAppend(t, ctx, in, "s1", "", []byte("x\n"))
	if err := in.wal.Close(); err != nil {
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
	in := openTestIntake(t, ctx, cfg, "s1")
	var want bytes.Buffer
	for i := 0; i < 6; i++ {
		payload := bytes.Repeat([]byte{byte('a' + i)}, 40)
		payload[39] = '\n'
		want.Write(payload)
		mustAppend(t, ctx, in, "s1", "", payload)
	}
	// The live ledger reads the rotated segments back the same way.
	if got := replayAll(t, in.sources[0].ledger); got != want.String() {
		t.Fatalf("live read across rotated segments differs: %d bytes, want %d", len(got), want.Len())
	}
	if err := in.wal.Close(); err != nil {
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

	in = openTestIntake(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
	if got := replayAll(t, in.sources[0].ledger); got != want.String() {
		t.Fatalf("replay across rotated segments differs: %d bytes, want %d", len(got), want.Len())
	}
	if seq := in.wal.byName["s1"].seq; seq != lastSeq+2 {
		t.Fatalf("new segment seq = %d, want %d (past the empty segment)", seq, lastSeq+2)
	}
	if st := in.wal.Stats(); st.QuarantinedSegments != 0 || st.TornTruncatedBytes != 0 {
		t.Fatalf("clean chain reported recovery actions: %+v", st)
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
		// len= is checked only with the payload it counts: a corrupt
		// length far past EOF is the same short read, and must not size
		// an allocation (2^62 made make([]byte, n) panic).
		{"len-past-eof", walMagic + " d id=late len=4611686018427387904 sha256=0000000000000000000000000000000000000000000000000000000000000000\npartial payload"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			in := openTestIntake(t, ctx, WALConfig{Dir: dir}, "s1")
			mustAppend(t, ctx, in, "s1", "good", []byte("ok\n"))
			if err := in.wal.Close(); err != nil {
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

			in = openTestIntake(t, ctx, WALConfig{Dir: dir, Resume: true}, "s1")
			if got := replayAll(t, in.sources[0].ledger); got != "ok\n" {
				t.Fatalf("replay after torn tail = %q", got)
			}
			st := in.wal.Stats()
			if st.TornTruncatedBytes != int64(len(tc.tear)) {
				t.Fatalf("truncated %d bytes, want %d", st.TornTruncatedBytes, len(tc.tear))
			}
			if info, err := os.Stat(seg); err != nil || info.Size() != goodSize {
				t.Fatalf("segment not truncated back: size %v err %v, want %d", info.Size(), err, goodSize)
			}
			if st.QuarantinedSegments != 0 {
				t.Fatalf("torn tail quarantined %d segments instead of truncating", st.QuarantinedSegments)
			}
		})
	}
}

// TestWALChecksumQuarantine: a corrupt record before the final
// segment (a broken checksum, or a length past the segment's end)
// quarantines its whole segment and every later one, and a segment
// that does not start where the chain before it ends quarantines
// itself and every later one — nothing from them folds, the files are
// set aside with a .quarantined suffix, and the log names the last
// good delivery ID to re-request from.
func TestWALChecksumQuarantine(t *testing.T) {
	for _, tc := range []struct {
		name        string
		corrupt     func(seg []byte) []byte
		quarantined int
	}{
		// A flipped payload byte breaks the record's checksum.
		{"payload-byte", func(seg []byte) []byte {
			seg[len(seg)-2] ^= 0xff
			return seg
		}, 2},
		// The id is under the checksum too: a flipped id is corruption,
		// not another delivery a redelivery of d1 would fold beside.
		{"id-flip", func(seg []byte) []byte {
			return bytes.Replace(seg, []byte(" id=d1 "), []byte(" id=d9 "), 1)
		}, 2},
		// len= is checked only with the payload it counts: a corrupt
		// length past the end of a middle segment is a tear there, and
		// must not size an allocation (2^62 made make([]byte, n) panic).
		{"len-past-eof", func(seg []byte) []byte {
			return bytes.Replace(seg, []byte(" len=40 "), []byte(" len=4611686018427387904 "), 1)
		}, 2},
		// A middle segment cut at a record boundary (rotation closes a
		// segment without fsync, so a power loss can do this) is clean
		// itself, but the next segment starts past where it ends.
		{"chain-gap", func(seg []byte) []byte {
			return seg[:bytes.IndexByte(seg, '\n')+1]
		}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := context.Background()
			dir := t.TempDir()
			// 256-byte cap: each ~140-byte framed delivery lands in its own
			// segment.
			in := openTestIntake(t, ctx, WALConfig{Dir: dir, SegmentBytes: 256}, "s1")
			payload := func(c byte) []byte {
				p := bytes.Repeat([]byte{c}, 40)
				p[39] = '\n'
				return p
			}
			for i, id := range []string{"d0", "d1", "d2"} {
				mustAppend(t, ctx, in, "s1", id, payload(byte('a'+i)))
			}
			if err := in.wal.Close(); err != nil {
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

			var logged strings.Builder
			logf := func(format string, args ...any) { fmt.Fprintf(&logged, format+"\n", args...) }
			mgr, leds, err := openWAL(ctx, WALConfig{Dir: dir, Resume: true}, []string{"s1"}, logf)
			if err != nil {
				t.Fatal(err)
			}
			defer mgr.Close()
			if got := replayAll(t, leds[0]); got != string(payload('a')) {
				t.Fatalf("replay folded past the corrupt segment: %q", got)
			}
			if q, _ := filepath.Glob(filepath.Join(dir, "*"+walQuarantined)); len(q) != tc.quarantined {
				t.Fatalf("quarantined %v, want %d segments", q, tc.quarantined)
			}
			if seen := leds[0].seen; len(seen) != 1 || seen["d0"] != 40 {
				t.Fatalf("recovered seen = %v, want only d0", seen)
			}
			if !strings.Contains(logged.String(), `re-request deliveries after id "d0"`) {
				t.Fatalf("log does not name d0 as the last good delivery:\n%s", logged.String())
			}
			st := mgr.Stats()
			if st.QuarantinedSegments != int64(tc.quarantined) || st.ReplayedBytes != 40 {
				t.Fatalf("stats after quarantine: %+v", st)
			}
			// The next appends go to a fresh segment numbered past the
			// quarantined chain, so a later resume cannot collide.
			if _, err := mgr.Append(ctx, "s1", "d3", leds[0].bytes, payload('x')); err != nil {
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
			in := openTestIntake(t, ctx, cfg, "s1")
			for i := 0; i < tc.prep; i++ {
				if err := in.append(ctx, "s1", "", bytes.Repeat([]byte("p"), 40), false); err != nil {
					t.Fatalf("prep append: %v", err)
				}
			}
			if err := in.append(ctx, "s1", "", line, false); err == nil || !faultpoint.IsFault(err) {
				t.Fatalf("faulted append: %v, want injected fault", err)
			}
			st := in.wal.Stats()
			if !st.Shedding || st.ShedReason == "" {
				t.Fatalf("fault did not latch shed: %+v", st)
			}
			if err := in.append(ctx, "s1", "", line, false); !errors.Is(err, ErrWALShed) {
				t.Fatalf("post-shed append: %v, want ErrWALShed", err)
			}
			if err := in.completeSource(ctx, "s1"); !errors.Is(err, ErrWALShed) {
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
	in := openTestIntake(t, ctx, WALConfig{Dir: t.TempDir(), SyncBytes: 1 << 30}, "s1")
	if err := in.append(ctx, "s1", "", []byte("x\n"), false); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := in.completeSource(ctx, "s1"); err == nil || !faultpoint.IsFault(err) {
		t.Fatalf("faulted complete: %v, want injected fault", err)
	}
	if err := in.append(ctx, "s1", "", []byte("y\n"), false); !errors.Is(err, ErrWALShed) {
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
	in := openTestIntake(t, ctx, WALConfig{Dir: t.TempDir(), SyncBytes: 1}, "s1")
	if err := in.append(ctx, "s1", "", []byte("x\n"), false); err != nil {
		t.Fatalf("append queueing the doomed sync: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st := in.wal.Stats(); st.Shedding {
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
	if err := in.append(ctx, "s1", "", []byte("y\n"), false); !errors.Is(err, ErrWALShed) {
		t.Fatalf("post-shed append: %v, want ErrWALShed", err)
	}
	if err := in.completeSource(ctx, "s1"); !errors.Is(err, ErrWALShed) {
		t.Fatalf("post-shed complete: %v, want ErrWALShed", err)
	}
}

// TestWALReplayFault: a serve.wal.replay fault at restart fails the
// open outright — recovery never silently skips journal bytes.
func TestWALReplayFault(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	in := openTestIntake(t, ctx, WALConfig{Dir: dir}, "s1")
	if err := in.append(ctx, "s1", "", []byte("x\n"), false); err != nil {
		t.Fatal(err)
	}
	if err := in.wal.Close(); err != nil {
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
	in := openTestIntake(t, ctx, WALConfig{Dir: t.TempDir(), DiskBudgetBytes: 256}, "s1")
	if err := in.append(ctx, "s1", "", []byte("small\n"), false); err != nil {
		t.Fatal(err)
	}
	if err := in.append(ctx, "s1", "", bytes.Repeat([]byte("x"), 512), false); !errors.Is(err, ErrWALShed) {
		t.Fatalf("over-budget append: %v, want ErrWALShed", err)
	}
	st := in.wal.Stats()
	if !st.Shedding || !strings.Contains(st.ShedReason, "disk budget") {
		t.Fatalf("budget exhaustion did not shed: %+v", st)
	}
}

// TestWALCoveredBytes: the line→byte lag mapping walks the intake's
// ledgers in declared order and rounds a partially folded source down
// to its last delivery boundary.
func TestWALCoveredBytes(t *testing.T) {
	ctx := context.Background()
	in := openTestIntake(t, ctx, WALConfig{Dir: t.TempDir()}, "s1", "s2")
	// s1: 6 bytes / 2 lines, then 3 bytes / 1 line. s2: 6 bytes / 3 lines.
	for _, d := range []struct {
		src     string
		payload string
	}{
		{"s1", "ab\ncd\n"},
		{"s1", "ef\n"},
		{"s2", "g\nh\ni\n"},
	} {
		if err := in.append(ctx, d.src, "", []byte(d.payload), false); err != nil {
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
		st := in.walStats(tc.lines, 0)
		if lag := st.JournaledBytes - st.LagBytes; lag != tc.covered {
			t.Errorf("covered(%d lines) = %d bytes, want %d", tc.lines, lag, tc.covered)
		}
		if st.CheckpointLagBytes != st.JournaledBytes {
			t.Errorf("checkpoint lag at 0 lines = %d, want all %d journaled bytes", st.CheckpointLagBytes, st.JournaledBytes)
		}
	}
}

// TestWALRefusesWAL1: a journal in the previous format is refused with
// a message naming both formats, never scanned as corrupt.
func TestWALRefusesWAL1(t *testing.T) {
	dir := t.TempDir()
	seg := filepath.Join(dir, walSegmentName("s1", 1))
	if err := os.WriteFile(seg, []byte("fullweb-wal1 segment s1 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openWAL(context.Background(), WALConfig{Dir: dir, Resume: true}, []string{"s1"}, testLogf(t))
	if err == nil || !strings.Contains(err.Error(), "journal format fullweb-wal1, this build reads fullweb-wal2") {
		t.Fatalf("wal1 open: %v, want the versioned refusal", err)
	}
}

// TestIntakeResumePastBuffer: the buffer cap bounds bytes accepted
// since open and not yet read, so a recovered journal larger than the
// cap still lets the restarted run accept new deliveries.
func TestIntakeResumePastBuffer(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	first := openTestIntake(t, ctx, WALConfig{Dir: dir}, "s1")
	recovered := bytes.Repeat([]byte("x\n"), 50)
	mustAppend(t, ctx, first, "s1", "", recovered)
	if err := first.wal.Close(); err != nil {
		t.Fatal(err)
	}

	in, err := newIntake([]string{"s1"}, 16, obs.SystemClock(), nil, true)
	if err != nil {
		t.Fatal(err)
	}
	m, leds, err := openWAL(ctx, WALConfig{Dir: dir, Resume: true}, []string{"s1"}, testLogf(t))
	if err != nil {
		t.Fatal(err)
	}
	defer m.Close()
	in.attachWAL(m, leds)
	if err := in.append(ctx, "s1", "", []byte("new\n"), false); err != nil {
		t.Fatalf("append after a %d-byte recovery into a 16-byte buffer: %v", len(recovered), err)
	}
	if err := in.append(ctx, "s1", "", bytes.Repeat([]byte("y"), 13), false); !errors.Is(err, ErrBufferFull) {
		t.Fatalf("append past the cap: %v, want ErrBufferFull", err)
	}
	if got := replayAll(t, in.sources[0].ledger); got != string(recovered)+"new\n" {
		t.Fatalf("read back %q", got)
	}
}
