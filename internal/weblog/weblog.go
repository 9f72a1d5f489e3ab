// Package weblog implements the log-handling substrate of Figure 1 of
// the paper: parsing and writing Common Log Format (CLF) records, merging
// access and error logs from redundant servers, and an in-memory store
// with the time-range and counting queries the analyses are built on.
package weblog

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"

	"fullweb/internal/obs"
)

var (
	// ErrMalformed is returned for a line that cannot be parsed as CLF.
	ErrMalformed = errors.New("weblog: malformed log line")
	// ErrEmpty is returned for operations on an empty store.
	ErrEmpty = errors.New("weblog: no records")
)

// clfTime is the CLF timestamp layout.
const clfTime = "02/Jan/2006:15:04:05 -0700"

// Record is one log entry (one HTTP request).
type Record struct {
	// Host is the client IP address or sanitized unique identifier.
	Host string
	// Time is the request timestamp (one-second granularity in CLF).
	Time time.Time
	// Method, Path and Proto are the parsed request line parts.
	Method string
	Path   string
	Proto  string
	// Status is the HTTP response status code.
	Status int
	// Bytes is the response size. A legitimate zero-byte response (e.g. a
	// 304) keeps Bytes == 0 with BytesMissing false; a "-" field in the
	// log sets BytesMissing instead. The two cases are distinct in CLF
	// and must survive a format/parse round trip distinctly.
	Bytes int64
	// BytesMissing reports that the log carried "-" for the size field
	// (the server did not record one).
	BytesMissing bool
}

// IsError reports whether the record's status indicates a failure
// (4xx/5xx), matching the error analysis split of the paper's pipeline.
func (r *Record) IsError() bool { return r.Status >= 400 }

// FormatCLF renders the record as a Common Log Format line. Quoted
// fields are written raw, as real servers do; embedded double quotes and
// control characters (which would break the format's framing) are
// replaced by underscores first.
func (r Record) FormatCLF() string {
	bytesField := "-"
	if !r.BytesMissing && r.Bytes >= 0 {
		bytesField = strconv.FormatInt(r.Bytes, 10)
	}
	return fmt.Sprintf("%s - - [%s] \"%s %s %s\" %d %s",
		sanitizeField(r.Host),
		r.Time.Format(clfTime),
		sanitizeField(r.Method), sanitizeField(r.Path), sanitizeField(r.Proto),
		r.Status,
		bytesField,
	)
}

// sanitizeField makes a string safe to embed in a CLF line: double
// quotes, control characters, and (for unquoted fields) spaces would all
// corrupt the framing, so they become underscores.
func sanitizeField(s string) string {
	var b strings.Builder
	for _, r := range s {
		if r == '"' || r < 0x20 || r == 0x7f || r == ' ' {
			b.WriteByte('_')
			continue
		}
		b.WriteRune(r)
	}
	return b.String()
}

// ParseCLF parses one Common Log Format line:
//
//	host ident authuser [date] "request" status bytes
//
// The record's string fields are substrings of line.
func ParseCLF(line string) (Record, error) {
	var rec Record
	var memo stampMemo
	err := parseCLFInto(line, &rec, &memo)
	return rec, err
}

// stampMemo holds the last timestamp text parseCLFTime decoded and the
// instant it decoded to. CLF stamps to the second, so most lines of a
// busy log repeat their predecessor's stamp; a chunk's parse shares one
// memo across its lines and decodes each run of equal stamps once.
type stampMemo struct {
	stamp string
	t     time.Time
}

// parseCLFInto is ParseCLF writing into *rec, so the chunked reader
// parses each line straight into its slot of a recycled record slab.
// Every field of *rec is overwritten; on error *rec holds whatever was
// parsed before the fault. memo carries the previous line's decoded
// stamp: a line whose stamp text equals it takes its time without a
// decode, and a stamp parseCLFTime decodes replaces it. Stamps only
// time.Parse accepts are never memoized.
//
// It runs once per input line: field splitting is hand-rolled (no
// strings.Fields/Split) so parsing allocates nothing on success, and
// the timestamp goes through the fixed-layout decoder parseCLFTime
// before time.Parse (DESIGN.md §13).
//
//hot:path
func parseCLFInto(line string, rec *Record, memo *stampMemo) error {
	*rec = Record{}
	rest := strings.TrimSpace(line)
	if rest == "" {
		return fmt.Errorf("%w: empty line", ErrMalformed)
	}
	// host
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("%w: missing fields", ErrMalformed)
	}
	rec.Host = rest[:sp]
	rest = rest[sp+1:]
	// ident authuser: skip two space-delimited fields.
	for i := 0; i < 2; i++ {
		sp = strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("%w: missing ident/authuser", ErrMalformed)
		}
		rest = rest[sp+1:]
	}
	// [date]
	if len(rest) == 0 || rest[0] != '[' {
		return fmt.Errorf("%w: missing timestamp bracket", ErrMalformed)
	}
	// A memoized stamp holds no ']', so on a line that repeats it the
	// bracket just past it is the first one.
	end := len(clfTime) + 1
	if len(rest) > end && rest[end] == ']' && rest[1:end] == memo.stamp {
		rec.Time = memo.t
	} else {
		if end = strings.IndexByte(rest, ']'); end < 0 {
			return fmt.Errorf("%w: unterminated timestamp", ErrMalformed)
		}
		stamp := rest[1:end]
		ts, ok := parseCLFTime(stamp)
		if ok {
			memo.stamp, memo.t = stamp, ts
		} else {
			var err error
			if ts, err = time.Parse(clfTime, stamp); err != nil {
				return fmt.Errorf("%w: timestamp %q: %v", ErrMalformed, stamp, err)
			}
		}
		rec.Time = ts
	}
	rest = strings.TrimPrefix(rest[end+1:], " ")
	// "request"
	if len(rest) == 0 || rest[0] != '"' {
		return fmt.Errorf("%w: missing request quote", ErrMalformed)
	}
	end = strings.IndexByte(rest[1:], '"')
	if end < 0 {
		return fmt.Errorf("%w: unterminated request", ErrMalformed)
	}
	request := rest[1 : 1+end]
	// The request must be exactly three space-separated parts (empty
	// parts are legal, as strings.Split would produce them); splitting by
	// index keeps the hot parse path free of intermediate slices.
	sp1 := strings.IndexByte(request, ' ')
	if sp1 < 0 {
		return fmt.Errorf("%w: request line %q", ErrMalformed, request)
	}
	sp2 := strings.IndexByte(request[sp1+1:], ' ')
	if sp2 < 0 {
		return fmt.Errorf("%w: request line %q", ErrMalformed, request)
	}
	sp2 += sp1 + 1
	if strings.IndexByte(request[sp2+1:], ' ') >= 0 {
		return fmt.Errorf("%w: request line %q", ErrMalformed, request)
	}
	rec.Method, rec.Path, rec.Proto = request[:sp1], request[sp1+1:sp2], request[sp2+1:]
	rest = strings.TrimPrefix(rest[end+2:], " ")
	// status bytes: the first two whitespace-separated fields, with the
	// exact field boundaries strings.Fields would find (unicode spaces
	// included) but without materializing the field slice.
	statusField, next := nextField(rest, 0)
	bytesField, _ := nextField(rest, next)
	if statusField == "" || bytesField == "" {
		return fmt.Errorf("%w: missing status/bytes", ErrMalformed)
	}
	status, err := strconv.Atoi(statusField)
	if err != nil || status < 100 || status > 599 {
		return fmt.Errorf("%w: status %q", ErrMalformed, statusField)
	}
	rec.Status = status
	if bytesField == "-" {
		rec.BytesMissing = true
	} else {
		b, err := strconv.ParseInt(bytesField, 10, 64)
		if err != nil || b < 0 {
			return fmt.Errorf("%w: bytes %q", ErrMalformed, bytesField)
		}
		rec.Bytes = b
	}
	return nil
}

// nextField returns the first whitespace-delimited field of s at or
// after byte offset i, plus the offset just past it. Field boundaries
// are unicode.IsSpace runes — the same split strings.Fields performs —
// so substituting nextField for Fields cannot change which lines parse.
// ASCII bytes are classified by asciiSpace without decoding; only a
// byte >= utf8.RuneSelf takes the rune path. An empty return means no
// further field exists.
func nextField(s string, i int) (string, int) {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	start := i
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if asciiSpace[c] {
				break
			}
			i++
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return s[start:i], i
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// ParseError records a line that failed to parse, with its position.
type ParseError struct {
	LineNumber int
	Line       string
	Err        error
}

// Error implements the error interface.
func (e ParseError) Error() string {
	return fmt.Sprintf("weblog: line %d: %v", e.LineNumber, e.Err)
}

// Unwrap exposes the underlying cause.
func (e ParseError) Unwrap() error { return e.Err }

// ReadAll parses a stream of CLF lines. Malformed lines are collected as
// ParseErrors rather than aborting the scan (real logs always carry some
// noise). The returned records preserve input order.
func ReadAll(r io.Reader) ([]Record, []ParseError, error) {
	return ReadAllCtx(context.Background(), r)
}

// ReadAllCtx is ReadAll under a context carrying observability state: it
// wraps the scan in a weblog.parse span and feeds the
// weblog.records_parsed and weblog.parse_errors counters. Parsing itself
// is identical to ReadAll — instrumentation never changes what is
// computed.
func ReadAllCtx(ctx context.Context, r io.Reader) ([]Record, []ParseError, error) {
	_, sp := obs.StartSpan(ctx, "weblog.parse")
	defer sp.End()
	records, badRecs, err := readAll(r)
	sp.SetInt("records", int64(len(records)))
	sp.SetInt("errors", int64(len(badRecs)))
	reg := obs.MetricsFrom(ctx)
	reg.Counter("weblog.records_parsed").Add(int64(len(records)))
	reg.Counter("weblog.parse_errors").Add(int64(len(badRecs)))
	return records, badRecs, err
}

func readAll(r io.Reader) ([]Record, []ParseError, error) {
	var (
		records []Record
		badRecs []ParseError
	)
	// Rotated production logs arrive gzip-compressed; sniff the magic so
	// every parsing entry point accepts .gz and plain text alike.
	dr, err := MaybeDecompress(r)
	if err != nil {
		return nil, nil, err
	}
	scanner := bufio.NewScanner(dr)
	scanner.Buffer(make([]byte, 0, 64*1024), 1024*1024)
	lineNo := 0
	for scanner.Scan() {
		lineNo++
		line := scanner.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		rec, err := ParseCLF(line)
		if err != nil {
			badRecs = append(badRecs, ParseError{LineNumber: lineNo, Line: line, Err: err})
			continue
		}
		records = append(records, rec)
	}
	if err := scanner.Err(); err != nil {
		return nil, nil, fmt.Errorf("weblog: reading: %w", err)
	}
	return records, badRecs, nil
}

// WriteAll renders records as CLF lines to w.
func WriteAll(w io.Writer, records []Record) error {
	bw := bufio.NewWriter(w)
	for _, rec := range records {
		if _, err := bw.WriteString(rec.FormatCLF()); err != nil {
			return fmt.Errorf("weblog: writing: %w", err)
		}
		if err := bw.WriteByte('\n'); err != nil {
			return fmt.Errorf("weblog: writing: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("weblog: flushing: %w", err)
	}
	return nil
}
