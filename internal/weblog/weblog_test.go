package weblog

import (
	"errors"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

const sampleLine = `192.168.1.5 - - [12/Jan/2004:10:30:45 -0500] "GET /index.html HTTP/1.0" 200 1043`

func TestParseCLF(t *testing.T) {
	rec, err := ParseCLF(sampleLine)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Host != "192.168.1.5" {
		t.Errorf("host = %q", rec.Host)
	}
	if rec.Method != "GET" || rec.Path != "/index.html" || rec.Proto != "HTTP/1.0" {
		t.Errorf("request = %q %q %q", rec.Method, rec.Path, rec.Proto)
	}
	if rec.Status != 200 || rec.Bytes != 1043 {
		t.Errorf("status/bytes = %d/%d", rec.Status, rec.Bytes)
	}
	want := time.Date(2004, 1, 12, 10, 30, 45, 0, time.FixedZone("", -5*3600))
	if !rec.Time.Equal(want) {
		t.Errorf("time = %v, want %v", rec.Time, want)
	}
}

func TestParseCLFDashBytes(t *testing.T) {
	rec, err := ParseCLF(`host - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.1" 304 -`)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Bytes != 0 {
		t.Errorf("bytes = %d, want 0", rec.Bytes)
	}
	if !rec.BytesMissing {
		t.Error("BytesMissing should be set for a dash size field")
	}
	if rec.IsError() {
		t.Error("304 is not an error")
	}
}

func TestFormatCLFZeroVsMissingBytes(t *testing.T) {
	// A genuine zero-byte response and an unrecorded size are distinct in
	// CLF ("0" vs "-") and must stay distinct through format and parse.
	base := Record{
		Host: "h", Time: time.Date(2004, 1, 12, 10, 30, 45, 0, time.UTC),
		Method: "GET", Path: "/", Proto: "HTTP/1.1", Status: 304,
	}
	zero := base
	line := zero.FormatCLF()
	if !strings.HasSuffix(line, " 304 0") {
		t.Errorf("zero-byte response formatted as %q, want trailing \"304 0\"", line)
	}
	back, err := ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	if back.Bytes != 0 || back.BytesMissing {
		t.Errorf("zero-byte round trip: bytes=%d missing=%v", back.Bytes, back.BytesMissing)
	}
	missing := base
	missing.BytesMissing = true
	line = missing.FormatCLF()
	if !strings.HasSuffix(line, " 304 -") {
		t.Errorf("missing-size response formatted as %q, want trailing \"304 -\"", line)
	}
	if back, err = ParseCLF(line); err != nil {
		t.Fatal(err)
	}
	if !back.BytesMissing || back.Bytes != 0 {
		t.Errorf("missing-size round trip: bytes=%d missing=%v", back.Bytes, back.BytesMissing)
	}
}

func TestParseCLFErrorStatus(t *testing.T) {
	rec, err := ParseCLF(`h - - [12/Jan/2004:10:30:45 -0500] "GET /missing HTTP/1.0" 404 321`)
	if err != nil {
		t.Fatal(err)
	}
	if !rec.IsError() {
		t.Error("404 should be an error")
	}
}

func TestParseCLFMalformed(t *testing.T) {
	bad := []string{
		"",
		"justonefield",
		`h - - 12/Jan/2004:10:30:45 -0500 "GET / HTTP/1.0" 200 1`,      // no brackets
		`h - - [12/Jan/2004:10:30:45 -0500 "GET / HTTP/1.0" 200 1`,     // unterminated bracket
		`h - - [not-a-date] "GET / HTTP/1.0" 200 1`,                    // bad date
		`h - - [12/Jan/2004:10:30:45 -0500] GET / HTTP/1.0 200 1`,      // unquoted request
		`h - - [12/Jan/2004:10:30:45 -0500] "GET /" 200 1`,             // two-part request
		`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" banana 1`, // bad status
		`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 99 1`,     // out-of-range status
		`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200`,      // missing bytes
		`h - - [12/Jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 -12`,  // negative bytes
	}
	for _, line := range bad {
		if _, err := ParseCLF(line); !errors.Is(err, ErrMalformed) {
			t.Errorf("ParseCLF(%q) error = %v, want ErrMalformed", line, err)
		}
	}
}

func TestFormatParseRoundTrip(t *testing.T) {
	rec := Record{
		Host:   "10.0.0.7",
		Time:   time.Date(2004, 4, 12, 23, 59, 59, 0, time.UTC),
		Method: "POST", Path: "/cgi-bin/form", Proto: "HTTP/1.1",
		Status: 500, Bytes: 98765,
	}
	back, err := ParseCLF(rec.FormatCLF())
	if err != nil {
		t.Fatal(err)
	}
	if back.Host != rec.Host || !back.Time.Equal(rec.Time) || back.Method != rec.Method ||
		back.Path != rec.Path || back.Proto != rec.Proto || back.Status != rec.Status || back.Bytes != rec.Bytes {
		t.Fatalf("round trip mismatch: %+v vs %+v", back, rec)
	}
}

// Property: format→parse is the identity for arbitrary valid records.
func TestFormatParseRoundTripProperty(t *testing.T) {
	f := func(hostRaw uint32, offset int32, status uint16, bytes uint32) bool {
		rec := Record{
			Host:   "10.1." + strconv.Itoa(int(hostRaw%256)) + "." + strconv.Itoa(int(hostRaw/256%256)),
			Time:   time.Unix(1073000000+int64(offset%604800), 0).UTC(),
			Method: "GET", Path: "/x", Proto: "HTTP/1.0",
			Status: 100 + int(status%500),
			Bytes:  int64(bytes),
		}
		back, err := ParseCLF(rec.FormatCLF())
		if err != nil {
			return false
		}
		return back.Host == rec.Host && back.Time.Equal(rec.Time) &&
			back.Status == rec.Status && back.Bytes == rec.Bytes
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadAll(t *testing.T) {
	input := sampleLine + "\n" +
		"garbage line\n" +
		"\n" +
		`h2 - - [12/Jan/2004:10:30:46 -0500] "GET /a HTTP/1.0" 200 55` + "\n"
	records, bad, err := ReadAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != 2 {
		t.Fatalf("records = %d, want 2", len(records))
	}
	if len(bad) != 1 {
		t.Fatalf("bad = %d, want 1", len(bad))
	}
	if bad[0].LineNumber != 2 {
		t.Errorf("bad line number %d, want 2", bad[0].LineNumber)
	}
	if !errors.Is(bad[0], ErrMalformed) {
		t.Error("ParseError should unwrap to ErrMalformed")
	}
	if bad[0].Error() == "" {
		t.Error("ParseError must describe itself")
	}
}

func TestWriteAllReadAllRoundTrip(t *testing.T) {
	recs := []Record{
		{Host: "a", Time: time.Unix(1000, 0).UTC(), Method: "GET", Path: "/1", Proto: "HTTP/1.0", Status: 200, Bytes: 10},
		{Host: "b", Time: time.Unix(1001, 0).UTC(), Method: "GET", Path: "/2", Proto: "HTTP/1.0", Status: 404, Bytes: 0},
	}
	var sb strings.Builder
	if err := WriteAll(&sb, recs); err != nil {
		t.Fatal(err)
	}
	back, bad, err := ReadAll(strings.NewReader(sb.String()))
	if err != nil || len(bad) != 0 {
		t.Fatalf("read back: %v, %d bad", err, len(bad))
	}
	if len(back) != len(recs) {
		t.Fatalf("got %d records", len(back))
	}
	for i := range recs {
		if back[i].Host != recs[i].Host || back[i].Status != recs[i].Status {
			t.Fatalf("record %d mismatch", i)
		}
	}
}
