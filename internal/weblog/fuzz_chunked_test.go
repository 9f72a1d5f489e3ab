package weblog

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"fullweb/internal/parallel"
)

// FuzzChunkedIngest feeds arbitrary bytes — including truncated and
// corrupt gzip members — through the chunked reader and asserts the
// hardened-ingestion contract: never a panic; every failure is either
// a positioned *ReadError or a gzip header error; at one geometry the
// full emitted sequence — chunk positions, records, error positions —
// and the error are identical at every pool size and window, on
// failure as on success; and at every chunk size, window and pool
// size, every emitted record and reject (with its line number) and
// the ErrRecIndex interleaving are those of a one-line-chunk scan,
// which on readable input are exactly ReadAll's.
func FuzzChunkedIngest(f *testing.F) {
	gz := func(s string) []byte {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		zw.Write([]byte(s))
		zw.Close()
		return buf.Bytes()
	}
	whole := gz(chunkedSample)
	f.Add([]byte(chunkedSample))
	f.Add(whole)
	f.Add(whole[:len(whole)-12])    // truncated gzip: checksum cut off
	f.Add(whole[:len(whole)/2])     // mid-record cut inside the deflate stream
	f.Add([]byte{0x1f, 0x8b})       // bare gzip magic, no header
	f.Add([]byte{0x1f, 0x8b, 0xff}) // corrupt gzip header
	f.Add([]byte("h1 - - [12/Jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 100\ncut mid-rec"))
	// An oversized record parses in full before it is rejected; the
	// valid record after it reuses its slab slot and must not inherit
	// its missing-bytes flag.
	f.Add([]byte(strings.Repeat("x", 300) + " - - [12/Jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 -\n" +
		"h2 - - [12/Jan/2004:10:30:46 -0500] \"GET /b HTTP/1.0\" 200 7\n"))
	// A stamp only time.Parse decodes (a lowercase month) is never
	// memoized: the line repeating it, and the canonical spelling of
	// the same instant after it, must each be decoded afresh.
	f.Add([]byte("h1 - - [12/jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 1\n" +
		"h1 - - [12/jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 1\n" +
		"h1 - - [12/Jan/2004:10:30:45 -0500] \"GET /b HTTP/1.0\" 200 2\n" +
		"h2 - - [12/jan/2004:10:30:45 -0500] \"GET /c HTTP/1.0\" 200 3\n"))
	// A line whose bracket text starts with the memoized stamp but
	// runs past it is not a memo hit.
	f.Add([]byte("h1 - - [12/Jan/2004:10:30:45 -0500] \"GET /a HTTP/1.0\" 200 1\n" +
		"h1 - - [12/Jan/2004:10:30:45 -0500x] \"GET /a HTTP/1.0\" 200 1\n" +
		"h1 - - [12/Jan/2004:10:30:45 -0500]] \"GET /a HTTP/1.0\" 200 1\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		type emitted struct {
			chunks []string
			err    string
		}
		sequence := func(workers int, cfg ChunkConfig) emitted {
			var out emitted
			err := ReadChunksCtx(context.Background(), bytes.NewReader(data), parallel.NewPool(workers), cfg, func(ch Chunk) error {
				var b strings.Builder
				fmt.Fprintf(&b, "first %d lines %d", ch.FirstLine, ch.Lines)
				for _, rec := range ch.Records {
					fmt.Fprintf(&b, "\n%s", rec.FormatCLF())
				}
				for k, pe := range ch.Errs {
					fmt.Fprintf(&b, "\nreject line %d after %d records", pe.LineNumber, ch.ErrRecIndex[k])
				}
				out.chunks = append(out.chunks, b.String())
				return nil
			})
			if err != nil {
				out.err = err.Error()
			}
			return out
		}
		want := sequence(1, ChunkConfig{Lines: 3, Window: 1, MaxFieldBytes: 256})
		for _, workers := range []int{1, 3} {
			for _, window := range []int{1, 2, 8} {
				got := sequence(workers, ChunkConfig{Lines: 3, Window: window, MaxFieldBytes: 256})
				if got.err != want.err {
					t.Fatalf("pool %d window %d: error %q, want %q", workers, window, got.err, want.err)
				}
				if len(got.chunks) != len(want.chunks) {
					t.Fatalf("pool %d window %d: emitted %d chunks, want %d", workers, window, len(got.chunks), len(want.chunks))
				}
				for i := range got.chunks {
					if got.chunks[i] != want.chunks[i] {
						t.Fatalf("pool %d window %d: chunk %d is\n%s\nwant\n%s", workers, window, i, got.chunks[i], want.chunks[i])
					}
				}
			}
		}

		// Record for record against ReadAll, at every geometry: chunk
		// slabs are recycled once emit returns, so a slab that kept a
		// record of an earlier chunk (say, past the end of a chunk a
		// reject shortened), or a slot that kept fields of a rejected
		// line, would show up here as a wrong record. ReadAll has no
		// field bound, so its records that breach it are the oversized
		// rejects.
		type transcript struct {
			recs    []string // FormatCLF of every record, in input order
			rejects []string // position, text and cause of every reject
			bounded []bool   // whether each reject is an oversized record
			order   []int    // records emitted before each reject
			err     error
		}
		read := func(workers int, cfg ChunkConfig) transcript {
			var tr transcript
			tr.err = ReadChunksCtx(context.Background(), bytes.NewReader(data), parallel.NewPool(workers), cfg, func(ch Chunk) error {
				if len(ch.ErrRecIndex) != len(ch.Errs) {
					t.Fatalf("ErrRecIndex len %d vs Errs len %d", len(ch.ErrRecIndex), len(ch.Errs))
				}
				prev := 0
				for _, idx := range ch.ErrRecIndex {
					if idx < prev || idx > len(ch.Records) {
						t.Fatalf("ErrRecIndex %v not monotone within [0,%d]", ch.ErrRecIndex, len(ch.Records))
					}
					prev = idx
				}
				for k, pe := range ch.Errs {
					tr.order = append(tr.order, len(tr.recs)+ch.ErrRecIndex[k])
					tr.rejects = append(tr.rejects, fmt.Sprintf("line %d %q: %v", pe.LineNumber, pe.Line, pe.Err))
					tr.bounded = append(tr.bounded, errors.Is(pe.Err, ErrOversized))
				}
				for _, rec := range ch.Records {
					tr.recs = append(tr.recs, rec.FormatCLF())
				}
				return nil
			})
			return tr
		}
		const maxField = 256
		ref := read(1, ChunkConfig{Lines: 1, Window: 1, MaxFieldBytes: maxField})
		if ref.err != nil {
			var re *ReadError
			if errors.As(ref.err, &re) {
				if re.Line < 0 {
					t.Fatalf("ReadError with negative position: %v", re)
				}
			} else if !strings.Contains(ref.err.Error(), "gzip header") {
				t.Fatalf("failure is neither positioned nor a gzip header error: %v", ref.err)
			}
		} else {
			all, errs, err := ReadAll(bytes.NewReader(data))
			if err != nil {
				t.Fatalf("ReadAll failed where the chunked reader did not: %v", err)
			}
			var recs []string
			for _, rec := range all {
				if Oversized(&rec, maxField) == nil {
					recs = append(recs, rec.FormatCLF())
				}
			}
			if !slices.Equal(ref.recs, recs) {
				t.Fatalf("records\n%q\nReadAll's within the field bound\n%q", ref.recs, recs)
			}
			var malformed []string
			for i, pe := range ref.rejects {
				if !ref.bounded[i] {
					malformed = append(malformed, pe)
				}
			}
			if len(malformed) != len(errs) || len(ref.rejects)-len(malformed) != len(all)-len(recs) {
				t.Fatalf("%d malformed and %d oversized rejects; ReadAll: %d errors, %d records past the bound",
					len(malformed), len(ref.rejects)-len(malformed), len(errs), len(all)-len(recs))
			}
			for i, pe := range errs {
				if want := fmt.Sprintf("line %d %q: %v", pe.LineNumber, pe.Line, pe.Err); malformed[i] != want {
					t.Fatalf("reject %d is %s, ReadAll %s", i, malformed[i], want)
				}
			}
		}
		for _, lines := range []int{1, 3, 64} {
			for _, window := range []int{1, 2, 8} {
				for _, workers := range []int{1, 3} {
					got := read(workers, ChunkConfig{Lines: lines, Window: window, MaxFieldBytes: maxField})
					where := fmt.Sprintf("lines %d window %d pool %d", lines, window, workers)
					if fmt.Sprint(got.err) != fmt.Sprint(ref.err) {
						t.Fatalf("%s: error %v, want %v", where, got.err, ref.err)
					}
					if !slices.Equal(got.recs, ref.recs) {
						t.Fatalf("%s: records\n%q\nwant\n%q", where, got.recs, ref.recs)
					}
					if !slices.Equal(got.rejects, ref.rejects) || !slices.Equal(got.order, ref.order) {
						t.Fatalf("%s: rejects %q after %v records, want %q after %v", where, got.rejects, got.order, ref.rejects, ref.order)
					}
				}
			}
		}
	})
}
