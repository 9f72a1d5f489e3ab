package weblog

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"fullweb/internal/parallel"
)

// FuzzChunkedIngest feeds arbitrary bytes — including truncated and
// corrupt gzip members — through the chunked reader and asserts the
// hardened-ingestion contract: never a panic; every failure is either
// a positioned *ReadError or a gzip header error; the parse outcome
// (record/error counts, error positions, ErrRecIndex interleaving
// invariants) is identical across chunk geometries; and at one
// geometry the full emitted sequence — chunk positions, records, error
// positions — and the error are identical at every pool size and
// window, on failure as on success.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		type outcome struct {
			recs     int
			errLines []int
		}
		run := func(cfg ChunkConfig) (outcome, error) {
			var out outcome
			err := ReadChunksCtx(context.Background(), bytes.NewReader(data), parallel.NewPool(1), cfg, func(ch Chunk) error {
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
				out.recs += len(ch.Records)
				for _, pe := range ch.Errs {
					out.errLines = append(out.errLines, pe.LineNumber)
				}
				return nil
			})
			return out, err
		}
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

		a, errA := run(ChunkConfig{Lines: 3, Window: 2, MaxFieldBytes: 256})
		b, errB := run(ChunkConfig{Lines: 64, Window: 1, MaxFieldBytes: 256})
		if (errA == nil) != (errB == nil) {
			t.Fatalf("chunk geometry changed failure: %v vs %v", errA, errB)
		}
		if errA != nil {
			var re *ReadError
			if errors.As(errA, &re) {
				if re.Line < 0 {
					t.Fatalf("ReadError with negative position: %v", re)
				}
			} else if !strings.Contains(errA.Error(), "gzip header") {
				t.Fatalf("failure is neither positioned nor a gzip header error: %v", errA)
			}
			return
		}
		if a.recs != b.recs || len(a.errLines) != len(b.errLines) {
			t.Fatalf("geometry changed outcome: %+v vs %+v", a, b)
		}
		for i := range a.errLines {
			if a.errLines[i] != b.errLines[i] {
				t.Fatalf("error %d at line %d vs %d", i, a.errLines[i], b.errLines[i])
			}
		}
	})
}
