package weblog

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
	"unicode"
	"unicode/utf8"
)

// timestampSeeds are CLF lines whose timestamps sit on the fixed-layout
// decoder's edges: leap days, 30-day months, zone extremes, a
// half-hour zone, a lowercase month and second 60.
var timestampSeeds = []string{
	`h - - [29/Feb/2004:23:59:59 +0000] "GET / HTTP/1.0" 200 1`,
	`h - - [29/Feb/1900:00:00:00 +0000] "GET / HTTP/1.0" 200 1`,
	`h - - [31/Sep/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 1`,
	`h - - [12/Jan/2004:10:30:45 +1400] "GET / HTTP/1.0" 200 1`,
	`h - - [12/Jan/2004:10:30:45 -1200] "GET / HTTP/1.0" 200 1`,
	`h - - [12/Jan/2004:10:30:45 +0530] "GET / HTTP/1.0" 200 1`,
	`h - - [12/jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 1`,
	`h - - [12/Jan/2004:10:30:60 -0500] "GET / HTTP/1.0" 200 1`,
}

// fieldSeeds put non-ASCII bytes around the status and bytes fields:
// the Unicode spaces U+0085, U+00A0 and U+2003, a non-space rune, an
// invalid byte and a truncated sequence.
var fieldSeeds = []string{
	"h - - [12/Jan/2004:10:30:45 -0500] \"GET / HTTP/1.0\"\u00a0200\u2003-",
	"h - - [12/Jan/2004:10:30:45 -0500] \"GET / HTTP/1.0\" \u0085200 5\u0085",
	"h - - [12/Jan/2004:10:30:45 -0500] \"GET / HTTP/1.0\" 2\u00e900 5",
	"h - - [12/Jan/2004:10:30:45 -0500] \"GET / HTTP/1.0\" \xff200 \xc2",
}

// numberSeeds put the status and bytes fields at the edges of what
// strconv accepts: signed and zero-padded statuses, a status after two
// spaces, signed bytes, 18 and 19 digits, one past int64, and a
// Unicode space before the bytes.
var numberSeeds = []string{
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" +200 1`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 0200 1`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0"  200 1`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 -0`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 +5`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 999999999999999999`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 1234567890123456789`,
	`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 9223372036854775808`,
	"h - - [12/Jan/2004:10:30:45 -0500] \"GET / HTTP/1.0\" 200\u20035",
}

// refParseCLFInto is parseCLFInto without its stamp memo: every stamp
// decoded.
func refParseCLFInto(line string, rec *Record) error {
	*rec = Record{}
	rest := strings.TrimSpace(line)
	if rest == "" {
		return fmt.Errorf("%w: empty line", ErrMalformed)
	}
	sp := strings.IndexByte(rest, ' ')
	if sp < 0 {
		return fmt.Errorf("%w: missing fields", ErrMalformed)
	}
	rec.Host = rest[:sp]
	rest = rest[sp+1:]
	for i := 0; i < 2; i++ {
		sp = strings.IndexByte(rest, ' ')
		if sp < 0 {
			return fmt.Errorf("%w: missing ident/authuser", ErrMalformed)
		}
		rest = rest[sp+1:]
	}
	if len(rest) == 0 || rest[0] != '[' {
		return fmt.Errorf("%w: missing timestamp bracket", ErrMalformed)
	}
	end := strings.IndexByte(rest, ']')
	if end < 0 {
		return fmt.Errorf("%w: unterminated timestamp", ErrMalformed)
	}
	ts, ok := parseCLFTime(rest[1:end])
	if !ok {
		var err error
		if ts, err = time.Parse(clfTime, rest[1:end]); err != nil {
			return fmt.Errorf("%w: timestamp %q: %v", ErrMalformed, rest[1:end], err)
		}
	}
	rec.Time = ts
	rest = strings.TrimPrefix(rest[end+1:], " ")
	if len(rest) == 0 || rest[0] != '"' {
		return fmt.Errorf("%w: missing request quote", ErrMalformed)
	}
	end = strings.IndexByte(rest[1:], '"')
	if end < 0 {
		return fmt.Errorf("%w: unterminated request", ErrMalformed)
	}
	request := rest[1 : 1+end]
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

// checkParseCLF requires ParseCLF, and parseCLFInto with a memo that
// already holds the line's own stamp, to return the record and the
// error text refParseCLFInto returns.
func checkParseCLF(t *testing.T, line string) {
	t.Helper()
	var want Record
	wantErr := fmt.Sprint(refParseCLFInto(line, &want))
	got, err := ParseCLF(line)
	if fmt.Sprint(err) != wantErr || !reflect.DeepEqual(got, want) {
		t.Fatalf("ParseCLF(%q) = %+v, %v; reference parser gives %+v, %s", line, got, err, want, wantErr)
	}
	var memo stampMemo
	parseCLFInto(line, &got, &memo)
	err = parseCLFInto(line, &got, &memo)
	if fmt.Sprint(err) != wantErr || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseCLFInto(%q) after its own stamp = %+v, %v; reference parser gives %+v, %s", line, got, err, want, wantErr)
	}
}

// refNextField is nextField before its ASCII fast path: every byte is
// decoded as a rune and classified by unicode.IsSpace.
func refNextField(s string, i int) (string, int) {
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if !unicode.IsSpace(r) {
			break
		}
		i += size
	}
	start := i
	for i < len(s) {
		r, size := utf8.DecodeRuneInString(s[i:])
		if unicode.IsSpace(r) {
			break
		}
		i += size
	}
	return s[start:i], i
}

// checkNextField compares nextField with refNextField from every byte
// offset of s.
func checkNextField(t *testing.T, s string) {
	t.Helper()
	for i := 0; i <= len(s); i++ {
		got, gotNext := nextField(s, i)
		want, wantNext := refNextField(s, i)
		if got != want || gotNext != wantNext {
			t.Fatalf("nextField(%q, %d) = %q, %d; rune loop gives %q, %d", s, i, got, gotNext, want, wantNext)
		}
	}
}

// FuzzParseCLF checks that the parser never panics, that it returns
// the record and error text of the reference parser, with and without
// a memoized stamp (checkParseCLF), that the fixed-layout timestamp
// decoder agrees with time.Parse (checkCLFTime), that nextField's
// ASCII fast path splits exactly as the rune loop does
// (checkNextField), and that every successfully parsed record survives a format/parse
// round trip with every field equal — including the zero-bytes /
// missing-bytes distinction, which an earlier formatter collapsed to
// "-".
func FuzzParseCLF(f *testing.F) {
	f.Add(sampleLine)
	f.Add(`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.1" 304 -`)
	f.Add(`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.1" 304 0`)
	f.Add("")
	f.Add(`x - - [bad] "GET / H" 200 1`)
	f.Add(strings.Repeat(`"`, 30))
	f.Add(`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 99999999999999999999`)
	for _, line := range timestampSeeds {
		f.Add(line)
	}
	for _, line := range fieldSeeds {
		f.Add(line)
	}
	for _, line := range numberSeeds {
		f.Add(line)
	}
	// Requests of two and four parts, which the one-pass request split
	// must reject as the three-search split did.
	f.Add(`h - - [12/Jan/2004:10:30:45 -0500] "GET /a b HTTP/1.0" 200 1`)
	f.Add(`h - - [12/Jan/2004:10:30:45 -0500] "GET /a" 200 1`)
	f.Fuzz(func(t *testing.T, line string) {
		checkParseCLF(t, line)
		checkNextField(t, line)
		checkCLFTime(t, line)
		checkCLFTime(t, bracketed(line))
		rec, err := ParseCLF(line)
		if err != nil {
			return
		}
		back, err := ParseCLF(rec.FormatCLF())
		if err != nil {
			t.Fatalf("round trip of %q failed: %v", line, err)
		}
		// The formatter sanitizes framing-breaking characters, so string
		// fields are preserved modulo sanitization; everything else must
		// be exactly equal. Time needs Equal, not ==: time.Parse builds a
		// fresh FixedZone per call for offsets off the hour.
		if back.Host != sanitizeField(rec.Host) ||
			back.Method != sanitizeField(rec.Method) ||
			back.Path != sanitizeField(rec.Path) ||
			back.Proto != sanitizeField(rec.Proto) {
			t.Fatalf("round trip changed request fields: %+v vs %+v", rec, back)
		}
		if back.Status != rec.Status || back.Bytes != rec.Bytes || back.BytesMissing != rec.BytesMissing {
			t.Fatalf("round trip changed status/bytes: %+v vs %+v", rec, back)
		}
		if !back.Time.Equal(rec.Time) {
			t.Fatalf("round trip changed time: %v vs %v", rec.Time, back.Time)
		}
	})
}
