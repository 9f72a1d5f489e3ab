package serve

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"fullweb/internal/obs"
)

// FuzzWALReplay journals fuzzed deliveries, each stamped with a
// delivery ID, through the intake, damages the journal on disk and
// reopens it with Resume. The damage is one XOR-flipped byte in any
// segment (bit rot) and/or a cut off the end of any segment (a crash
// tearing the record being written, or a power loss losing the tail of
// a segment rotation closed without fsync). Recovery must never panic;
// the replayed bytes must be a delivery-aligned prefix of what was
// appended, with exactly that prefix's IDs and lengths in the dedup
// set; and a second reopen must find the recovered journal clean —
// nothing more to truncate or quarantine — and replay the same bytes.
//
// The one damage recovery refuses outright is a flip inside a segment
// header line (the line naming its source, sequence number and
// starting offset): that is a hard error, by design, and the only open
// error accepted here.
//
// Arguments: data splits on NUL into at most 64 deliveries (empties
// are dropped, as the intake never journals an empty body; the cap
// bounds the segments, each of which costs a directory fsync); segCap
// sets the segment size; mode bit 0 flips, bit 1 cuts, bit 2 journals
// a completion record last; seg and cutSeg pick the flipped and the cut
// segment; flipAt and cutAt count bytes back from the end of their
// segment.
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
	// The seeds below add a clean completed journal; a flip that turns
	// the second delivery's kind byte from d into c; a flip that turns
	// the first delivery's id d0 into d1; and, at a cap that holds two
	// records per segment, a cut of the first segment's last record,
	// which leaves a gap before the second segment.
	three := []byte("GET /a\n\x00GET /b\nGET /c\n\x00GET /d\n")
	f.Add(three, uint16(400), uint8(4), uint8(0), uint16(0), uint8(0), uint8(0), uint16(0))
	f.Add(three, uint16(0), uint8(1), uint8(2), uint16(100), uint8('d'^'c'), uint8(0), uint16(0))
	f.Add(three, uint16(0), uint8(1), uint8(1), uint16(86), uint8('0'^'1'), uint8(0), uint16(0))
	f.Add(three, uint16(236), uint8(2), uint8(0), uint16(0), uint8(0), uint8(0), uint16(114))
	f.Fuzz(func(t *testing.T, data []byte, segCap uint16, mode uint8, seg uint8, flipAt uint16, flip uint8, cutSeg uint8, cutAt uint16) {
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
		in, err := newIntake([]string{"s1"}, 1<<20, obs.SystemClock(), nil, true)
		if err != nil {
			t.Fatal(err)
		}
		m, leds, err := openWAL(ctx, cfg, []string{"s1"}, quiet)
		if err != nil {
			t.Fatal(err)
		}
		in.attachWAL(m, leds)
		for i, d := range deliveries {
			if err := in.append(ctx, "s1", fmt.Sprintf("d%d", i), d, false); err != nil {
				t.Fatal(err)
			}
		}
		if mode&4 != 0 {
			if err := in.completeSource(ctx, "s1"); err != nil {
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
			path := segs[int(cutSeg)%len(segs)]
			info, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.Truncate(path, info.Size()-int64(cutAt)%(info.Size()+1)); err != nil {
				t.Fatal(err)
			}
		}

		resume := cfg
		resume.Resume = true
		m, leds, err = openWAL(ctx, resume, []string{"s1"}, quiet)
		if err != nil {
			if inHeader {
				return
			}
			t.Fatalf("reopen after damage outside a segment header: %v", err)
		}
		got := replayAll(t, leds[0])
		k, sum := 0, 0
		for k < len(deliveries) && sum+len(deliveries[k]) <= len(got) {
			sum += len(deliveries[k])
			k++
		}
		if want := bytes.Join(deliveries[:k], nil); sum != len(got) || string(want) != got {
			t.Fatalf("recovered %d bytes, not a delivery-aligned prefix of the %d deliveries appended", len(got), len(deliveries))
		}
		seen := leds[0].seen
		if len(seen) != k {
			t.Fatalf("recovered %d delivery IDs for a %d-delivery prefix: %v", len(seen), k, seen)
		}
		for i := 0; i < k; i++ {
			if n, ok := seen[fmt.Sprintf("d%d", i)]; !ok || n != int64(len(deliveries[i])) {
				t.Fatalf("recovered seen %v, want d%d with %d bytes", seen, i, len(deliveries[i]))
			}
		}
		if err := m.Close(); err != nil {
			t.Fatal(err)
		}

		m, leds, err = openWAL(ctx, resume, []string{"s1"}, quiet)
		if err != nil {
			t.Fatalf("second reopen: %v", err)
		}
		defer m.Close()
		if st := m.Stats(); st.TornTruncatedBytes != 0 || st.QuarantinedSegments != 0 {
			t.Fatalf("second reopen truncated %d bytes, quarantined %d segments", st.TornTruncatedBytes, st.QuarantinedSegments)
		}
		if again := replayAll(t, leds[0]); again != got {
			t.Fatalf("second reopen recovered %d bytes, first %d", len(again), len(got))
		}
	})
}
