package weblog

import (
	"strings"
	"testing"
	"time"
)

// checkCLFTime fails t unless the fixed-layout decoder agrees with
// time.Parse on s: where the decoder accepts, time.Parse accepts the
// same instant in a zone of the same name and offset. Where it
// declines, ParseCLF defers to time.Parse, so the two cannot disagree.
func checkCLFTime(t *testing.T, s string) {
	t.Helper()
	fast, ok := parseCLFTime(s)
	if !ok {
		return
	}
	slow, err := time.Parse(clfTime, s)
	if err != nil {
		t.Fatalf("%q: decoder accepted %v, time.Parse rejected: %v", s, fast, err)
	}
	fn, fo := fast.Zone()
	sn, so := slow.Zone()
	if !fast.Equal(slow) || fn != sn || fo != so || fast.Location().String() != slow.Location().String() {
		t.Fatalf("%q: decoder %v (zone %q %d, %s), time.Parse %v (zone %q %d, %s)",
			s, fast, fn, fo, fast.Location(), slow, sn, so, slow.Location())
	}
}

// bracketed returns the text between the first '[' and the next ']'
// of line, the span ParseCLF hands to the timestamp decoder.
func bracketed(line string) string {
	_, after, _ := strings.Cut(line, "[")
	ts, _, _ := strings.Cut(after, "]")
	return ts
}

// TestCLFTimeMatchesTimeParse: calendar edges, zone offsets, spellings
// the decoder leaves to time.Parse, and a non-digit in every numeric
// position — ParseCLF's verdict and instant match time.Parse's on
// each, under the process's Local zone, a fixed Local zone and a Local
// zone with daylight saving time.
func TestCLFTimeMatchesTimeParse(t *testing.T) {
	cases := []string{
		"29/Feb/2004:12:00:00 +0000", // leap year
		"29/Feb/2000:12:00:00 +0000", // leap century
		"29/Feb/2003:12:00:00 +0000", // not a leap year
		"29/Feb/1900:12:00:00 +0000", // century, not a leap year
		"28/Feb/1900:23:59:59 -0000",
		"31/Apr/2004:00:00:00 +0000", // day 31 in 30-day months
		"31/Jun/2004:00:00:00 +0000",
		"31/Sep/2004:00:00:00 +0000",
		"31/Nov/2004:00:00:00 +0000",
		"31/Dec/2004:23:59:59 +0000",
		"30/Apr/2004:00:00:00 +0000",
		"00/Jan/2004:00:00:00 +0000",
		"12/Jan/2004:10:30:45 +1400", // zone extremes
		"12/Jan/2004:10:30:45 -1200",
		"12/Jan/2004:10:30:45 +0530", // half-hour zone
		"12/Jan/2004:10:30:45 -0930",
		"12/Jan/2004:10:30:45 +1459",
		"12/Jan/2004:10:30:45 +1500", // beyond the decoder, still valid
		"12/Jan/2004:10:30:45 +2400",
		"12/Jan/2004:10:30:45 +0060",
		"12/Jan/2004:10:30:45 +2500",
		"12/Jan/2004:10:30:45 -0500",
		"12/jan/2004:10:30:45 -0500", // lowercase month: time.Parse accepts
		"12/JAN/2004:10:30:45 -0500",
		"12/Jan/2004:10:30:60 -0500", // second 60
		"12/Jan/2004:10:60:00 -0500",
		"12/Jan/2004:24:00:00 -0500",
		"12/Jan/2004:10:30:45.5 -0500",
		"12/Jan/2004:10:30:45  -0500",
		"12/Jan/2004:10:30:45 *0500",
		"01/Jan/0000:00:00:00 +0000",
		"31/Dec/9999:23:59:59 +1400",
		"01/Jan/1970:00:00:00 +0000",
		"31/Dec/1969:23:59:59 +0000",
		"12/Mar/2006:02:30:00 -0500", // spring-forward hour in New York
		"12/Mar/2006:03:30:00 -0400",
		"05/Nov/2006:01:30:00 -0400", // fall-back hour in New York
		"05/Nov/2006:01:30:00 -0500",
		"12/Jul/2004:10:30:45 -0400",
	}
	// A non-digit in every numeric position of the layout.
	const valid = "12/Jan/2004:10:30:45 -0500"
	for i := 0; i < len(valid); i++ {
		if valid[i] >= '0' && valid[i] <= '9' {
			for _, c := range []byte{'x', ' ', '+', '-', '/', ':'} {
				cases = append(cases, valid[:i]+string(c)+valid[i+1:])
			}
		}
	}
	locals := map[string]*time.Location{
		"process": time.Local,
		"fixed":   time.FixedZone("XST", -5*3600),
	}
	if ny, err := time.LoadLocation("America/New_York"); err == nil {
		locals["daylight saving"] = ny
	}
	orig := time.Local
	t.Cleanup(func() { time.Local = orig })
	for name, loc := range locals {
		time.Local = loc
		t.Run(name, func(t *testing.T) {
			for _, ts := range cases {
				checkCLFTime(t, ts)
				line := `h - - [` + ts + `] "GET / HTTP/1.0" 200 1`
				rec, err := ParseCLF(line)
				want, werr := time.Parse(clfTime, ts)
				if (err == nil) != (werr == nil) {
					t.Fatalf("%q: ParseCLF error %v, time.Parse error %v", ts, err, werr)
				}
				if err == nil && !rec.Time.Equal(want) {
					t.Fatalf("%q: ParseCLF %v, time.Parse %v", ts, rec.Time, want)
				}
				if werr != nil && !strings.Contains(err.Error(), werr.Error()) {
					t.Fatalf("%q: ParseCLF error %q lost time.Parse's %q", ts, err, werr)
				}
			}
		})
	}
	// Spot-check that the table reaches both verdicts and both paths.
	if _, ok := parseCLFTime("29/Feb/2004:12:00:00 +0000"); !ok {
		t.Error("decoder declined Feb 29 of a leap year")
	}
	if _, ok := parseCLFTime("12/jan/2004:10:30:45 -0500"); ok {
		t.Error("decoder accepted a lowercase month itself")
	}
	if _, err := ParseCLF(`h - - [12/jan/2004:10:30:45 -0500] "GET / HTTP/1.0" 200 1`); err != nil {
		t.Errorf("lowercase month rejected: %v", err)
	}
	if _, err := ParseCLF(`h - - [29/Feb/2003:12:00:00 +0000] "GET / HTTP/1.0" 200 1`); err == nil {
		t.Error("Feb 29 of a non-leap year accepted")
	}
}

// TestCLFTimeAllocationFree: a decoded timestamp in a whole-hour zone
// costs no allocation (the standard library caches those zones).
func TestCLFTimeAllocationFree(t *testing.T) {
	for _, ts := range []string{"12/Jan/2004:10:30:45 +0000", "12/Jan/2004:10:30:45 -0500"} {
		parseCLFTime(ts)
		if n := testing.AllocsPerRun(100, func() { parseCLFTime(ts) }); n != 0 {
			t.Errorf("%q: %v allocations per decode", ts, n)
		}
	}
}
