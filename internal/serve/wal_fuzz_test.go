package serve

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzWALReplay journals fuzzed deliveries through walManager.Append,
// damages the journal on disk and reopens it with Resume. The damage
// is one XOR-flipped byte in any segment (bit rot) and/or a cut off
// the end of the final segment (a crash tearing the record being
// written). Recovery must never panic; the replayed bytes must be a
// delivery-aligned prefix of what was appended; and a second reopen
// must find the recovered journal clean — nothing more to truncate or
// quarantine — and replay the same bytes.
//
// The one damage recovery refuses outright is a flip inside a segment
// header line (the line naming its source and sequence number): that is
// a hard error, by design, and the only open error accepted here.
//
// Arguments: data splits on NUL into at most 64 deliveries (empties
// are dropped, as the intake never journals an empty body; the cap
// bounds the segments, each of which costs a directory fsync); segCap
// sets the segment size; mode bit 0 flips, bit 1 cuts, bit 2 journals
// a completion record last; seg picks the flipped segment; flipAt and
// cutAt count bytes back from the end of their segment.
func FuzzWALReplay(f *testing.F) {
	// The checked-in corpus (testdata/fuzz/FuzzWALReplay) journals
	// three deliveries at the smallest segment cap, where every record
	// rotates: four segments, the first header-only. Its seeds damage
	// that journal three ways:
	//   - seed-torn-record-header cuts 40 bytes off the final segment,
	//     inside its record header;
	//   - seed-torn-payload cuts 3, inside its payload;
	//   - seed-corrupt-middle-segment flips a payload byte of the
	//     second delivery's segment.
	// The seeds below add a clean completed journal and a flip that
	// turns the second delivery's kind byte from d into c.
	three := []byte("GET /a\n\x00GET /b\nGET /c\n\x00GET /d\n")
	f.Add(three, uint16(400), uint8(4), uint8(0), uint16(0), uint8(0), uint16(0))
	f.Add(three, uint16(0), uint8(1), uint8(2), uint16(98), uint8('d'^'c'), uint16(0))
	f.Fuzz(func(t *testing.T, data []byte, segCap uint16, mode uint8, seg uint8, flipAt uint16, flip uint8, cutAt uint16) {
		if len(data) > 4<<10 {
			return
		}
		var deliveries [][]byte
		for _, d := range bytes.Split(data, []byte{0}) {
			if len(d) > 0 && len(deliveries) < 64 {
				deliveries = append(deliveries, d)
			}
		}
		ctx := context.Background()
		dir := t.TempDir()
		cfg := WALConfig{Dir: dir, SegmentBytes: 64 + int64(segCap%1024)}
		quiet := func(string, ...any) {}
		m, _, err := openWAL(ctx, cfg, []string{"s1"}, quiet)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range deliveries {
			if err := m.Append(ctx, "s1", "", d); err != nil {
				t.Fatal(err)
			}
		}
		if mode&4 != 0 {
			if err := m.Complete(ctx, "s1"); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		segs, err := filepath.Glob(filepath.Join(dir, "*"+walSegmentGlob))
		if err != nil || len(segs) == 0 {
			t.Fatalf("segments: %v, %v", segs, err)
		}
		sort.Strings(segs)
		// Every segment starts with its newline-terminated header line.
		inHeader := false
		if mode&1 != 0 && flip != 0 {
			path := segs[int(seg)%len(segs)]
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			at := len(b) - 1 - int(flipAt)%len(b)
			inHeader = at <= bytes.IndexByte(b, '\n')
			b[at] ^= flip
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if mode&2 != 0 {
			last := segs[len(segs)-1]
			info, err := os.Stat(last)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(last, info.Size()-int64(cutAt)%(info.Size()+1)); err != nil {
				t.Fatal(err)
			}
		}

		resume := cfg
		resume.Resume = true
		m, rec, err := openWAL(ctx, resume, []string{"s1"}, quiet)
		if err != nil {
			if inHeader {
				return
			}
			t.Fatalf("reopen after damage outside a segment header: %v", err)
		}
		got := replayAll(t, rec["s1"])
		k, sum := 0, 0
		for k < len(deliveries) && sum+len(deliveries[k]) <= len(got) {
			sum += len(deliveries[k])
			k++
		}
		if want := bytes.Join(deliveries[:k], nil); sum != len(got) || string(want) != got {
			t.Fatalf("recovered %d bytes, not a delivery-aligned prefix of the %d deliveries appended", len(got), len(deliveries))
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		m, rec, err = openWAL(ctx, resume, []string{"s1"}, quiet)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		defer m.Close()
		r := rec["s1"]
		if r.truncated != 0 || len(r.quarantined) != 0 {
			t.Fatalf("second reopen truncated %d bytes, quarantined %v", r.truncated, r.quarantined)
		}
		if again := replayAll(t, r); again != got {
			t.Fatalf("second reopen recovered %d bytes, first %d", len(again), len(got))
		}
	})
}
