package weblog

import (
	"strings"
	"testing"
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

// FuzzParseCLF checks that the parser never panics, that the
// fixed-layout timestamp decoder agrees with time.Parse (checkCLFTime),
// that nextField's ASCII fast path splits exactly as the rune loop does
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
	f.Fuzz(func(t *testing.T, line string) {
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
