package weblog

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"fullweb/internal/parallel"
)

// chunkedSample is a small log exercising every parse path: valid
// lines, blank lines and malformed lines, spread across chunk
// boundaries when parsed with tiny chunks.
const chunkedSample = `h1 - - [12/Jan/2004:10:30:45 -0500] "GET /a HTTP/1.0" 200 100
h2 - - [12/Jan/2004:10:30:46 -0500] "GET /b HTTP/1.0" 200 200

not a log line
h1 - - [12/Jan/2004:10:31:00 -0500] "GET /c HTTP/1.0" 404 -
h3 - - [12/Jan/2004:11:30:45 -0500] "POST /d HTTP/1.1" 500 3000
garbage [again
h2 - - [12/Jan/2004:12:00:00 -0500] "GET /e HTTP/1.0" 200 50
`

// collectChunks runs ReadChunksCtx and concatenates its output.
func collectChunks(t *testing.T, r io.Reader, workers int, cfg ChunkConfig) ([]Record, []ParseError) {
	t.Helper()
	var recs []Record
	var errs []ParseError
	err := ReadChunksCtx(context.Background(), r, parallel.NewPool(workers), cfg, func(ch Chunk) error {
		recs = append(recs, ch.Records...)
		errs = append(errs, ch.Errs...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return recs, errs
}

// requireSameParse asserts the chunked scan saw exactly what ReadAll
// sees: same records in the same order, same errors at the same global
// line numbers.
func requireSameParse(t *testing.T, recs []Record, errs []ParseError, wantRecs []Record, wantErrs []ParseError) {
	t.Helper()
	if len(recs) != len(wantRecs) {
		t.Fatalf("chunked parse got %d records, ReadAll %d", len(recs), len(wantRecs))
	}
	for i := range recs {
		if recs[i].FormatCLF() != wantRecs[i].FormatCLF() || !recs[i].Time.Equal(wantRecs[i].Time) {
			t.Fatalf("record %d differs:\nchunked %q\nreadall %q", i, recs[i].FormatCLF(), wantRecs[i].FormatCLF())
		}
	}
	if len(errs) != len(wantErrs) {
		t.Fatalf("chunked parse got %d errors, ReadAll %d", len(errs), len(wantErrs))
	}
	for i := range errs {
		if errs[i].LineNumber != wantErrs[i].LineNumber || errs[i].Line != wantErrs[i].Line {
			t.Fatalf("error %d differs: chunked line %d %q, readall line %d %q",
				i, errs[i].LineNumber, errs[i].Line, wantErrs[i].LineNumber, wantErrs[i].Line)
		}
	}
}

func TestReadChunksMatchesReadAll(t *testing.T) {
	wantRecs, wantErrs, err := ReadAll(strings.NewReader(chunkedSample))
	if err != nil {
		t.Fatal(err)
	}
	if len(wantRecs) != 5 || len(wantErrs) != 2 {
		t.Fatalf("sample expectations drifted: %d records, %d errors", len(wantRecs), len(wantErrs))
	}
	// Tiny chunks keep the window full; every worker count must see the
	// identical sequence (parallelism changes when, never what).
	for _, workers := range []int{1, 4} {
		for _, cfg := range []ChunkConfig{{}, {Lines: 1, Window: 1}, {Lines: 2, Window: 2}, {Lines: 3, Window: 8}} {
			recs, errs := collectChunks(t, strings.NewReader(chunkedSample), workers, cfg)
			requireSameParse(t, recs, errs, wantRecs, wantErrs)
		}
	}
}

func TestReadChunksChunkBookkeeping(t *testing.T) {
	var chunks []Chunk
	err := ReadChunksCtx(context.Background(), strings.NewReader(chunkedSample),
		parallel.NewPool(1), ChunkConfig{Lines: 3, Window: 2}, func(ch Chunk) error {
			chunks = append(chunks, ch)
			return nil
		})
	if err != nil {
		t.Fatal(err)
	}
	// 8 input lines (7 + trailing newline is not a line) in chunks of 3:
	// first lines 1, 4, 7.
	wantFirst := []int{1, 4, 7}
	if len(chunks) != len(wantFirst) {
		t.Fatalf("got %d chunks, want %d", len(chunks), len(wantFirst))
	}
	for i, ch := range chunks {
		if ch.FirstLine != wantFirst[i] {
			t.Errorf("chunk %d FirstLine = %d, want %d", i, ch.FirstLine, wantFirst[i])
		}
	}
}

func TestReadChunksEmitErrorAborts(t *testing.T) {
	boom := errors.New("boom")
	calls := 0
	err := ReadChunksCtx(context.Background(), strings.NewReader(chunkedSample),
		parallel.NewPool(1), ChunkConfig{Lines: 2, Window: 1}, func(ch Chunk) error {
			calls++
			return boom
		})
	if !errors.Is(err, boom) {
		t.Fatalf("emit error not propagated: %v", err)
	}
	if calls != 1 {
		t.Fatalf("emit called %d times after aborting error", calls)
	}
}

func TestReadChunksCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := ReadChunksCtx(ctx, strings.NewReader(chunkedSample), parallel.NewPool(1), ChunkConfig{}, func(Chunk) error { return nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

// gzipBytes compresses text in memory.
func gzipBytes(t *testing.T, text string) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(text)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGzipRoundTrip is the satellite round-trip check: a log parsed
// from its gzip-compressed form must be indistinguishable from the
// plain-text fixture, through both ReadAll and the chunked reader.
func TestGzipRoundTrip(t *testing.T) {
	plainRecs, plainErrs, err := ReadAll(strings.NewReader(chunkedSample))
	if err != nil {
		t.Fatal(err)
	}
	gz := gzipBytes(t, chunkedSample)

	gzRecs, gzErrs, err := ReadAll(bytes.NewReader(gz))
	if err != nil {
		t.Fatal(err)
	}
	requireSameParse(t, gzRecs, gzErrs, plainRecs, plainErrs)

	chRecs, chErrs := collectChunks(t, bytes.NewReader(gz), 2, ChunkConfig{Lines: 2, Window: 2})
	requireSameParse(t, chRecs, chErrs, plainRecs, plainErrs)
}

// TestGzipMultistream checks concatenated gzip members (rotated logs
// catenated with `cat a.gz b.gz`) decompress as one continuous stream.
func TestGzipMultistream(t *testing.T) {
	lines := strings.SplitAfter(strings.TrimSuffix(chunkedSample, "\n"), "\n")
	half := len(lines) / 2
	cat := append(gzipBytes(t, strings.Join(lines[:half], "")), gzipBytes(t, strings.Join(lines[half:], ""))...)

	plainRecs, plainErrs, err := ReadAll(strings.NewReader(chunkedSample))
	if err != nil {
		t.Fatal(err)
	}
	recs, errs, err := ReadAll(bytes.NewReader(cat))
	if err != nil {
		t.Fatal(err)
	}
	requireSameParse(t, recs, errs, plainRecs, plainErrs)
}

func TestMaybeDecompressPassthrough(t *testing.T) {
	for _, tc := range []struct{ name, in string }{
		{"empty", ""},
		{"one byte", "h"},
		{"plain text", "hello\nworld\n"},
		{"binary non-gzip", "\x1f\x00not gzip"},
	} {
		r, err := MaybeDecompress(strings.NewReader(tc.in))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		out, err := io.ReadAll(r)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if string(out) != tc.in {
			t.Errorf("%s: passthrough changed bytes: %q", tc.name, out)
		}
	}
}

func TestMaybeDecompressCorruptGzip(t *testing.T) {
	// Correct magic, garbage after: the gzip header parse must fail
	// loudly rather than silently yielding garbage text.
	if _, err := MaybeDecompress(strings.NewReader("\x1f\x8bgarbage")); err == nil {
		t.Fatal("corrupt gzip accepted")
	}
}

// TestReadAllTransparentGzip covers the satellite wiring: every parsing
// entry point goes through readAll, which now sniffs gzip, so .gz
// inputs work everywhere without callers opting in.
func TestReadAllTransparentGzip(t *testing.T) {
	recs, _, err := ReadAll(bytes.NewReader(gzipBytes(t, sampleLine+"\n")))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("got %d records from gzip sample", len(recs))
	}
}

// TestReadChunksAllocsPerRecord is the read layer's allocation gate:
// the scanner copies each chunk's lines into one string and records are
// parsed into recycled slabs, so a scan allocates per chunk, never per
// line. 64Ki well-formed lines through one worker must cost at most
// 0.01 allocations per record (the per-line design cost ~1).
func TestReadChunksAllocsPerRecord(t *testing.T) {
	const n = 1 << 16
	var b bytes.Buffer
	base := time.Date(2004, time.January, 12, 10, 0, 0, 0, time.FixedZone("", -5*3600))
	for i := 0; i < n; i++ {
		rec := Record{
			Host:   fmt.Sprintf("h%d.example.org", i%977),
			Time:   base.Add(time.Duration(i) * time.Second),
			Method: "GET", Path: fmt.Sprintf("/p/%d.html", i%131), Proto: "HTTP/1.0",
			Status: 200, Bytes: int64(i % 5000),
		}
		b.WriteString(rec.FormatCLF())
		b.WriteByte('\n')
	}
	text := b.Bytes()
	pool := parallel.NewPool(1)
	records := 0
	emit := func(ch Chunk) error {
		records += len(ch.Records)
		return nil
	}
	allocs := testing.AllocsPerRun(3, func() {
		if err := ReadChunksCtx(context.Background(), bytes.NewReader(text), pool, ChunkConfig{}, emit); err != nil {
			t.Fatal(err)
		}
	})
	if records != 4*n {
		t.Fatalf("emitted %d records over 4 scans, want %d", records, 4*n)
	}
	perRecord := allocs / n
	t.Logf("%.0f allocations per scan, %.4f per record", allocs, perRecord)
	if perRecord > 0.01 {
		t.Fatalf("ReadChunksCtx made %.0f allocations for %d records (%.4f per record), want <= 0.01 per record", allocs, n, perRecord)
	}
}
