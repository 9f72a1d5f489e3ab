package weblog

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func mkRec(sec int64, host string, status int, bytes int64) Record {
	return Record{
		Host: host, Time: time.Unix(sec, 0).UTC(),
		Method: "GET", Path: "/", Proto: "HTTP/1.0",
		Status: status, Bytes: bytes,
	}
}

func TestStoreBasics(t *testing.T) {
	recs := []Record{
		mkRec(30, "a", 200, 100),
		mkRec(10, "b", 404, 50),
		mkRec(20, "a", 200, 25),
	}
	s := NewStore(recs)
	if s.Len() != 3 {
		t.Fatalf("len = %d", s.Len())
	}
	first, last, err := s.Span()
	if err != nil {
		t.Fatal(err)
	}
	if first.Unix() != 10 || last.Unix() != 30 {
		t.Fatalf("span = %v..%v", first, last)
	}
	if s.TotalBytes() != 175 {
		t.Fatalf("bytes = %d", s.TotalBytes())
	}
	// Input untouched (copy at boundary).
	if recs[0].Time.Unix() != 30 {
		t.Fatal("NewStore must not reorder its input")
	}
}

func TestStoreEmpty(t *testing.T) {
	s := NewStore(nil)
	if _, _, err := s.Span(); !errors.Is(err, ErrEmpty) {
		t.Error("empty Span should return ErrEmpty")
	}
	if _, err := s.CountsPerSecond(); !errors.Is(err, ErrEmpty) {
		t.Error("empty CountsPerSecond should return ErrEmpty")
	}
	if _, err := s.Windows(time.Hour); !errors.Is(err, ErrEmpty) {
		t.Error("empty Windows should return ErrEmpty")
	}
}

func TestStoreRange(t *testing.T) {
	var recs []Record
	for sec := int64(0); sec < 100; sec++ {
		recs = append(recs, mkRec(sec, "h", 200, 1))
	}
	s := NewStore(recs)
	got := s.Range(time.Unix(10, 0).UTC(), time.Unix(20, 0).UTC())
	if len(got) != 10 {
		t.Fatalf("range size %d, want 10", len(got))
	}
	if got[0].Time.Unix() != 10 || got[9].Time.Unix() != 19 {
		t.Fatalf("range bounds wrong: %v..%v", got[0].Time, got[9].Time)
	}
	if len(s.Range(time.Unix(200, 0), time.Unix(300, 0))) != 0 {
		t.Fatal("out-of-span range should be empty")
	}
}

func TestCountsPerSecond(t *testing.T) {
	recs := []Record{
		mkRec(100, "a", 200, 1),
		mkRec(100, "b", 200, 1),
		mkRec(102, "c", 200, 1),
	}
	s := NewStore(recs)
	counts, err := s.CountsPerSecond()
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 0, 1}
	if len(counts) != len(want) {
		t.Fatalf("len = %d, want %d", len(counts), len(want))
	}
	for i := range want {
		if counts[i] != want[i] {
			t.Fatalf("counts[%d] = %v, want %v", i, counts[i], want[i])
		}
	}
}

func TestCountsPerBinValidation(t *testing.T) {
	s := NewStore([]Record{mkRec(1, "a", 200, 1)})
	if _, err := s.CountsPerBin(0); err == nil {
		t.Error("zero bin should error")
	}
}

func TestEventSeconds(t *testing.T) {
	s := NewStore([]Record{mkRec(5, "a", 200, 1), mkRec(3, "b", 200, 1)})
	secs := s.EventSeconds()
	if len(secs) != 2 || secs[0] != 3 || secs[1] != 5 {
		t.Fatalf("secs = %v", secs)
	}
}

func TestWindowsAndTypicalSelection(t *testing.T) {
	// Three hours with 10, 50 and 200 requests respectively, then a gap
	// hour with none.
	var recs []Record
	addBurst := func(startSec int64, n int) {
		for i := 0; i < n; i++ {
			recs = append(recs, mkRec(startSec+int64(i*3600/n), "h", 200, 1))
		}
	}
	addBurst(0, 10)
	addBurst(3600, 50)
	addBurst(7200, 200)
	s := NewStore(recs)
	windows, err := s.Windows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if len(windows) != 3 {
		t.Fatalf("windows = %d, want 3", len(windows))
	}
	if windows[0].Requests != 10 || windows[1].Requests != 50 || windows[2].Requests != 200 {
		t.Fatalf("window counts = %v", windows)
	}
	typical, err := s.SelectTypicalWindows(time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if typical[Low].Requests != 10 || typical[Med].Requests != 50 || typical[High].Requests != 200 {
		t.Fatalf("typical = %+v", typical)
	}
}

func TestSelectTypicalWindowsTooFew(t *testing.T) {
	s := NewStore([]Record{mkRec(0, "a", 200, 1)})
	if _, err := s.SelectTypicalWindows(time.Hour); err == nil {
		t.Error("single window should error")
	}
}

func TestWorkloadLevelString(t *testing.T) {
	if Low.String() != "Low" || Med.String() != "Med" || High.String() != "High" {
		t.Error("level names wrong")
	}
	if WorkloadLevel(9).String() == "" {
		t.Error("unknown level should stringify")
	}
}

// Property: the counting series sums to the record count, regardless of
// record distribution.
func TestCountsSumProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(300)
		recs := make([]Record, n)
		for i := range recs {
			recs[i] = mkRec(int64(rng.Intn(5000)), "h", 200, 1)
		}
		s := NewStore(recs)
		counts, err := s.CountsPerSecond()
		if err != nil {
			return false
		}
		total := 0.0
		for _, c := range counts {
			total += c
		}
		return int(total) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
