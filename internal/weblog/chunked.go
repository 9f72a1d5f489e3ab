package weblog

import (
	"bufio"
	"compress/gzip"
	"context"
	"fmt"
	"io"
	"strings"
	"sync/atomic"

	"fullweb/internal/obs"
	"fullweb/internal/parallel"
)

// gzipMagic is the two-byte header every gzip member starts with
// (RFC 1952). Production access logs are rotated and compressed, so the
// reader sniffs it and decompresses transparently.
var gzipMagic = []byte{0x1f, 0x8b}

// MaybeDecompress wraps r with a gzip reader when the stream starts
// with the gzip magic bytes and returns it unchanged (modulo buffering)
// otherwise. Callers get plain CLF text either way, so `.gz` rotated
// logs and uncompressed logs flow through the same parsing paths.
func MaybeDecompress(r io.Reader) (io.Reader, error) {
	br := bufio.NewReader(r)
	head, err := br.Peek(len(gzipMagic))
	if err != nil {
		// Too short to carry the magic (empty or one-byte input): not
		// gzip; hand the buffered reader back untouched.
		return br, nil
	}
	if head[0] != gzipMagic[0] || head[1] != gzipMagic[1] {
		return br, nil
	}
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, fmt.Errorf("weblog: gzip header: %w", err)
	}
	return zr, nil
}

// Chunk is one contiguous run of parsed lines from a chunked scan:
// the records in input order plus the malformed lines of the chunk.
// FirstLine is the 1-based line number of the chunk's first input line,
// so ParseError positions stay global across chunks.
type Chunk struct {
	FirstLine int
	// Lines is the number of raw input lines the chunk consumed
	// (including blank lines), so consumers can track exact stream
	// positions for checkpointing.
	Lines   int
	Records []Record
	Errs    []ParseError
	// ErrRecIndex holds, for each entry of Errs, how many of the
	// chunk's Records precede that malformed line. It lets consumers
	// interleave records and rejects in true input order, so error
	// accounting at snapshot boundaries is independent of chunk
	// geometry.
	ErrRecIndex []int
}

// ChunkConfig tunes ReadChunksCtx. The zero value selects the
// defaults.
type ChunkConfig struct {
	// Lines is the number of input lines per chunk (default 4096).
	Lines int
	// Window is the number of chunks in flight — the backpressure
	// bound: at most Window chunks sit between the start of their scan
	// and the return of their emit, so at most Window*Lines lines (plus
	// their records) are held, independent of trace length and of the
	// pool size. Default 8.
	Window int
	// SkipLines discards this many raw input lines before chunking
	// begins, preserving global line numbering — how a resumed run
	// seeks back to its checkpointed stream position.
	SkipLines int64
	// MaxFieldBytes, when positive, rejects records whose host or path
	// exceeds the bound; rejects surface as ParseErrors wrapping
	// ErrOversized. Zero disables the check.
	MaxFieldBytes int
}

// DefaultChunkLines and DefaultChunkWindow are the ChunkConfig zero-
// value defaults. Exported so front ends can reason about the
// backpressure bound (Window chunks in flight) when configuring
// health rules.
const (
	DefaultChunkLines  = 4096
	DefaultChunkWindow = 8
)

func (c ChunkConfig) withDefaults() ChunkConfig {
	if c.Lines <= 0 {
		c.Lines = DefaultChunkLines
	}
	if c.Window <= 0 {
		c.Window = DefaultChunkWindow
	}
	return c
}

// Interrupter is implemented by readers whose Read can block
// indefinitely waiting for more input, such as a live intake.
// ReadChunksCtx calls Interrupt when it abandons the scan (an emit or
// parse error, or the cancellation of ctx) so that a blocked Read
// returns and the scanning goroutine can be joined.
type Interrupter interface {
	Interrupt()
}

// rawChunk is one scanned, not yet parsed chunk of input lines: their
// text, each line terminated by '\n', in one string. Records parsed
// from the chunk slice into that string rather than owning their
// fields, so the scan allocates per chunk, not per line.
type rawChunk struct {
	firstLine int
	lines     int
	text      string
}

// ReadChunksCtx scans CLF lines from r in bounded-memory chunks and
// hands them to emit in input order. One goroutine scans chunks, the
// pool's workers parse them concurrently, and emit runs on the calling
// goroutine while later chunks are scanned and parsed — an ordered
// pipeline (parallel.Ordered) whose window, cfg.Window chunks, is the
// memory bound. emit receives the parsed chunks strictly in input
// order, so downstream state machines see exactly the sequence a
// sequential parse would produce: parallelism changes when lines are
// parsed, never what emit observes. Unlike ReadAllCtx, no full-trace
// slice ever exists.
//
// emit must not retain ch.Records or ch.Errs past its return: once
// emit is done with a chunk, its Records backing array is cleared and
// reused for a later chunk. Records themselves may be copied out, but
// their strings share one allocation with every line of their chunk,
// so a consumer that keeps a field for long (a session's Host) clones
// it rather than pinning the whole chunk text.
//
// emit returning an error aborts the scan with that error. A read
// error surfaces after every chunk scanned before it has been emitted.
func ReadChunksCtx(ctx context.Context, r io.Reader, pool *parallel.Pool, cfg ChunkConfig, emit func(Chunk) error) error {
	cfg = cfg.withDefaults()
	ctx, sp := obs.StartSpan(ctx, "weblog.read_chunks")
	defer sp.End()
	dr, err := MaybeDecompress(r)
	if err != nil {
		return err
	}
	scanner := bufio.NewScanner(dr)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	// Live counters move at chunk granularity so a telemetry scraper
	// watches parse progress mid-run: the parse counters tick as each
	// worker finishes a chunk, and chunks_in_flight counts chunks
	// scanned but not yet through emit — at most cfg.Window.
	reg := obs.MetricsFrom(ctx)
	recordsC := reg.Counter("weblog.records_parsed")
	parseErrsC := reg.Counter("weblog.parse_errors")
	chunksC := reg.Counter("weblog.chunks_parsed")
	inFlight := reg.Gauge("weblog.chunks_in_flight")
	lineNo := 0
	for int64(lineNo) < cfg.SkipLines {
		if !scanner.Scan() {
			if err := scanner.Err(); err != nil {
				return &ReadError{Line: lineNo, Err: err}
			}
			return fmt.Errorf("weblog: input ends at line %d, before resume position %d", lineNo, cfg.SkipLines)
		}
		lineNo++
	}
	// scanned is the producer's count, emitted the caller's; both are
	// read only after parallel.Ordered has joined the producer.
	// pending, the chunks scanned and not yet through emit, is shared.
	var scanned, emitted, records, parseErrs int64
	var pending atomic.Int64
	produce := func(ctx context.Context, yield func(rawChunk) bool) error {
		if ir, ok := r.(Interrupter); ok {
			defer context.AfterFunc(ctx, ir.Interrupt)()
		}
		// textHint presizes each chunk's text: the largest chunk so far
		// plus an eighth, so the builder rarely regrows and successive
		// texts share one allocation size, whose freed pages the next
		// text reuses. A chunk under half the hint resets it.
		textHint := 0
		for eof := false; !eof; {
			if err := fpRead.Check(ctx); err != nil {
				return &ReadError{Line: lineNo, Err: err}
			}
			raw := rawChunk{firstLine: lineNo + 1}
			var text strings.Builder
			text.Grow(textHint)
			for raw.lines < cfg.Lines {
				if !scanner.Scan() {
					eof = true
					break
				}
				lineNo++
				raw.lines++
				text.Write(scanner.Bytes())
				text.WriteByte('\n')
			}
			if raw.lines == 0 {
				break
			}
			raw.text = text.String()
			if need := len(raw.text) + len(raw.text)/8; need > textHint || need < textHint/2 {
				textHint = need
			}
			scanned++
			pending.Add(1)
			inFlight.Add(1)
			if !yield(raw) {
				return nil
			}
		}
		if err := scanner.Err(); err != nil {
			// A mid-stream failure (truncated gzip member, disk fault)
			// is positioned at the last line that scanned cleanly, so
			// strict mode can report exactly where the input broke and
			// budgeted mode can account for what was lost.
			return &ReadError{Line: lineNo, Err: err}
		}
		return nil
	}
	// slabs is the free list of Records backing arrays. A chunk's slab
	// comes back, cleared so it pins no chunk text, once emit has
	// returned, unless the list already holds a slab for every chunk
	// still pending and one more: a burst (a resumed run's replay) that
	// filled the window leaves no idle slabs behind once the input
	// slows to a trickle. The window bounds the slabs in use, so it
	// also bounds the list.
	slabs := make(chan []Record, cfg.Window)
	parse := func(ctx context.Context, raw rawChunk) (Chunk, error) {
		if err := fpParse.Check(ctx); err != nil {
			return Chunk{}, fmt.Errorf("weblog: parsing chunk at line %d: %w", raw.firstLine, err)
		}
		var slab []Record
		select {
		case slab = <-slabs:
		default:
		}
		ch := parseChunk(raw, slab, cfg.MaxFieldBytes)
		recordsC.Add(int64(len(ch.Records)))
		parseErrsC.Add(int64(len(ch.Errs)))
		chunksC.Inc()
		return ch, nil
	}
	err = parallel.Ordered(ctx, pool, cfg.Window, produce, parse, func(ch Chunk) error {
		records += int64(len(ch.Records))
		parseErrs += int64(len(ch.Errs))
		err := emit(ch)
		emitted++
		inFlight.Add(-1)
		clear(ch.Records)
		if int64(len(slabs)) <= pending.Add(-1) {
			select {
			case slabs <- ch.Records[:0]:
			default:
			}
		}
		return err
	})
	// Chunks scanned but abandoned unemitted leave the gauge too.
	inFlight.Add(emitted - scanned)
	if err != nil {
		return err
	}
	sp.SetInt("chunks", emitted)
	sp.SetInt("records", records)
	sp.SetInt("errors", parseErrs)
	return nil
}

// parseChunk parses one chunk's lines, mirroring readAll's tolerance:
// malformed lines are collected, blank lines skipped. When
// maxFieldBytes is positive, records with oversized host/path fields
// are rejected as ParseErrors wrapping ErrOversized. It runs once per
// input line; the parse loop's allocation budget is the engine's
// throughput bound (DESIGN.md §13).
//
// Records are parsed straight into slab, a recycled backing array
// whose every element is zero; a slab too small for the chunk is
// replaced by a fresh one. The slots past the returned Records stay
// zero, so a recycled slab never carries a record, or a reference to
// chunk text, from an earlier chunk.
//
//hot:path
func parseChunk(raw rawChunk, slab []Record, maxFieldBytes int) Chunk {
	ch := Chunk{FirstLine: raw.firstLine, Lines: raw.lines}
	if cap(slab) < raw.lines {
		slab = make([]Record, raw.lines)
	}
	slab = slab[:raw.lines]
	n := 0
	text := raw.text
	var memo stampMemo
	for lineNo := raw.firstLine; len(text) > 0; lineNo++ {
		end := strings.IndexByte(text, '\n')
		line := text[:end]
		text = text[end+1:]
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec := &slab[n]
		err := parseCLFInto(line, rec, &memo)
		if err == nil {
			err = Oversized(rec, maxFieldBytes)
		}
		if err != nil {
			*rec = Record{}
			ch.reject(lineNo, line, err, n)
			continue
		}
		n++
	}
	ch.Records = slab[:n]
	return ch
}

// reject records one malformed line, preceded in the chunk by records
// records (the cold path of parseChunk; a method rather than a closure
// so the hot loop allocates no function object).
func (ch *Chunk) reject(lineNo int, line string, err error, records int) {
	ch.Errs = append(ch.Errs, ParseError{LineNumber: lineNo, Line: line, Err: err})
	ch.ErrRecIndex = append(ch.ErrRecIndex, records)
}
