package weblog

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/parallel"
)

func faultCtx(t *testing.T, spec string) context.Context {
	t.Helper()
	set, err := faultpoint.Parse(spec)
	if err != nil {
		t.Fatal(err)
	}
	return faultpoint.With(context.Background(), set)
}

func TestOpenRetryRecoversFromTransientFaults(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Two injected open failures, three attempts: the third succeeds.
	ctx := faultCtx(t, "weblog.open=every:1,times:2")
	var slept []time.Duration
	policy := RetryPolicy{Attempts: 3, Backoff: 10 * time.Millisecond, Sleep: func(d time.Duration) { slept = append(slept, d) }}
	f, err := OpenRetry(ctx, path, policy)
	if err != nil {
		t.Fatalf("OpenRetry: %v", err)
	}
	f.Close()
	if len(slept) != 2 || slept[0] != 10*time.Millisecond || slept[1] != 20*time.Millisecond {
		t.Fatalf("backoff schedule %v, want [10ms 20ms]", slept)
	}
}

func TestOpenRetryExhaustsBudget(t *testing.T) {
	path := filepath.Join(t.TempDir(), "access.log")
	if err := os.WriteFile(path, []byte("x\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx := faultCtx(t, "weblog.open=every:1")
	_, err := OpenRetry(ctx, path, RetryPolicy{Attempts: 3})
	if err == nil {
		t.Fatal("OpenRetry succeeded under a permanent open fault")
	}
	if !faultpoint.IsFault(err) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
	// Missing files fail after the full attempt budget too.
	if _, err := OpenRetry(context.Background(), filepath.Join(t.TempDir(), "nope"), RetryPolicy{Attempts: 2}); err == nil {
		t.Fatal("OpenRetry succeeded on a missing file")
	}
}

func TestOversized(t *testing.T) {
	rec := Record{Host: "host", Path: strings.Repeat("/p", 50)}
	if err := Oversized(&rec, 0); err != nil {
		t.Fatalf("disabled check rejected: %v", err)
	}
	if err := Oversized(&rec, 200); err != nil {
		t.Fatalf("in-bounds record rejected: %v", err)
	}
	if err := Oversized(&rec, 16); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized path not rejected: %v", err)
	}
	rec2 := Record{Host: strings.Repeat("h", 300), Path: "/"}
	if err := Oversized(&rec2, 16); !errors.Is(err, ErrOversized) {
		t.Fatalf("oversized host not rejected: %v", err)
	}
}

// TestChunkedOversizedRejection: MaxFieldBytes turns well-framed but
// bloated lines into positioned ParseErrors wrapping ErrOversized.
func TestChunkedOversizedRejection(t *testing.T) {
	long := "h1 - - [12/Jan/2004:10:30:46 -0500] \"GET /" + strings.Repeat("x", 100) + " HTTP/1.0\" 200 7\n"
	input := chunkedSample + long
	recs, errs := collectChunks(t, strings.NewReader(input), 2, ChunkConfig{Lines: 3, MaxFieldBytes: 64})
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	found := false
	for _, pe := range errs {
		if errors.Is(pe.Err, ErrOversized) {
			found = true
			if pe.LineNumber != 9 {
				t.Fatalf("oversized reject at line %d, want 9", pe.LineNumber)
			}
		}
	}
	if !found {
		t.Fatalf("no ErrOversized among %d errors", len(errs))
	}
}

// TestChunkErrRecIndex: each chunk reports how many records precede
// each malformed line, so consumers can reconstruct true input order.
func TestChunkErrRecIndex(t *testing.T) {
	err := ReadChunksCtx(context.Background(), strings.NewReader(chunkedSample), parallel.NewPool(1), ChunkConfig{Lines: 1024}, func(ch Chunk) error {
		if len(ch.ErrRecIndex) != len(ch.Errs) {
			t.Fatalf("ErrRecIndex len %d, Errs len %d", len(ch.ErrRecIndex), len(ch.Errs))
		}
		// chunkedSample: records at lines 1,2,5,6,8; errors at lines 4,7.
		if ch.ErrRecIndex[0] != 2 || ch.ErrRecIndex[1] != 4 {
			t.Fatalf("ErrRecIndex %v, want [2 4]", ch.ErrRecIndex)
		}
		if ch.Lines != 8 {
			t.Fatalf("chunk consumed %d lines, want 8", ch.Lines)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestChunkedSkipLines: SkipLines discards the prefix while keeping
// global line numbering, and errors out when the input is shorter than
// the resume position.
func TestChunkedSkipLines(t *testing.T) {
	recs, errs := collectChunks(t, strings.NewReader(chunkedSample), 1, ChunkConfig{Lines: 2, SkipLines: 4})
	if len(recs) != 3 {
		t.Fatalf("got %d records after skip, want 3", len(recs))
	}
	if recs[0].Path != "/c" {
		t.Fatalf("first record after skip is %q, want /c", recs[0].Path)
	}
	if len(errs) != 1 || errs[0].LineNumber != 7 {
		t.Fatalf("errors after skip: %+v, want one at line 7", errs)
	}
	err := ReadChunksCtx(context.Background(), strings.NewReader("a\nb\n"), parallel.NewPool(1), ChunkConfig{SkipLines: 10}, func(Chunk) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "resume position") {
		t.Fatalf("short input skip: %v", err)
	}
}

// TestReadFaultPositioned: an injected weblog.read fault surfaces as a
// *ReadError positioned at the last cleanly scanned line.
func TestReadFaultPositioned(t *testing.T) {
	ctx := faultCtx(t, "weblog.read=hit:2")
	var got int
	err := ReadChunksCtx(ctx, strings.NewReader(chunkedSample), parallel.NewPool(1), ChunkConfig{Lines: 3, Window: 1}, func(ch Chunk) error {
		got += len(ch.Records)
		return nil
	})
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("error %v is not a *ReadError", err)
	}
	if re.Line != 3 {
		t.Fatalf("fault positioned at line %d, want 3", re.Line)
	}
	if !faultpoint.IsFault(err) {
		t.Fatalf("error %v does not wrap the injected fault", err)
	}
}

// TestParseFaultAborts: an injected weblog.parse fault inside the
// concurrent chunk-parse fan-out aborts the scan with a wrapped fault.
func TestParseFaultAborts(t *testing.T) {
	ctx := faultCtx(t, "weblog.parse=hit:1")
	err := ReadChunksCtx(ctx, strings.NewReader(chunkedSample), parallel.NewPool(4), ChunkConfig{Lines: 2}, func(Chunk) error { return nil })
	if err == nil || !faultpoint.IsFault(err) {
		t.Fatalf("parse fault not surfaced: %v", err)
	}
}

// TestTruncatedGzipPositioned: a gzip member cut mid-stream yields a
// positioned *ReadError naming the last good line — never a panic.
func TestTruncatedGzipPositioned(t *testing.T) {
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write([]byte(chunkedSample)); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-10]
	var recs int
	err := ReadChunksCtx(context.Background(), bytes.NewReader(cut), parallel.NewPool(1), ChunkConfig{Lines: 2, Window: 1}, func(ch Chunk) error {
		recs += len(ch.Records)
		return nil
	})
	var re *ReadError
	if !errors.As(err, &re) {
		t.Fatalf("truncated gzip error %v is not a *ReadError", err)
	}
	if re.Line < 0 || !strings.Contains(re.Error(), "reading after line") {
		t.Fatalf("unpositioned read error: %v", re)
	}
}
