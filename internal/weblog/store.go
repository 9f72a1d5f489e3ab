package weblog

import (
	"fmt"
	"sort"
	"time"
)

// Store is an in-memory, time-indexed collection of log records — the
// "database tables" stage of the paper's pipeline (Figure 1). Records are
// kept sorted by timestamp, enabling the range and counting queries the
// request- and session-level analyses need.
type Store struct {
	records []Record
}

// NewStore builds a store from records; the input is copied and sorted by
// time.
func NewStore(records []Record) *Store {
	cp := make([]Record, len(records))
	copy(cp, records)
	sort.SliceStable(cp, func(i, j int) bool { return cp[i].Time.Before(cp[j].Time) })
	return &Store{records: cp}
}

// Len returns the number of records.
func (s *Store) Len() int { return len(s.records) }

// All returns the records sorted by time. The caller must not modify the
// returned slice.
func (s *Store) All() []Record { return s.records }

// Span returns the first and last record timestamps.
func (s *Store) Span() (first, last time.Time, err error) {
	if len(s.records) == 0 {
		return time.Time{}, time.Time{}, ErrEmpty
	}
	return s.records[0].Time, s.records[len(s.records)-1].Time, nil
}

// Range returns the records with Time in [from, to). The returned slice
// aliases the store; the caller must not modify it.
func (s *Store) Range(from, to time.Time) []Record {
	lo := sort.Search(len(s.records), func(i int) bool { return !s.records[i].Time.Before(from) })
	hi := sort.Search(len(s.records), func(i int) bool { return !s.records[i].Time.Before(to) })
	return s.records[lo:hi]
}

// TotalBytes returns the sum of response sizes.
func (s *Store) TotalBytes() int64 {
	var sum int64
	for _, r := range s.records {
		sum += r.Bytes
	}
	return sum
}

// CountsPerSecond returns the counting series the paper analyzes: the
// number of requests in each one-second bin from the first record's
// second through the last, inclusive. Empty seconds count zero.
func (s *Store) CountsPerSecond() ([]float64, error) {
	return s.CountsPerBin(time.Second)
}

// CountsPerBin returns the counting series with the given bin width.
func (s *Store) CountsPerBin(bin time.Duration) ([]float64, error) {
	if len(s.records) == 0 {
		return nil, ErrEmpty
	}
	if bin <= 0 {
		return nil, fmt.Errorf("weblog: non-positive bin %v", bin)
	}
	start := s.records[0].Time.Truncate(bin)
	end := s.records[len(s.records)-1].Time
	n := int(end.Sub(start)/bin) + 1
	counts := make([]float64, n)
	for _, r := range s.records {
		idx := int(r.Time.Sub(start) / bin)
		counts[idx]++
	}
	return counts, nil
}

// Window is a contiguous time interval with its request count, used for
// the paper's Low/Med/High interval selection.
type Window struct {
	Start    time.Time
	Duration time.Duration
	Requests int
}

// Windows splits the store's span into consecutive intervals of width d
// (the paper uses 42 four-hour windows over one week) and counts the
// requests in each.
func (s *Store) Windows(d time.Duration) ([]Window, error) {
	if len(s.records) == 0 {
		return nil, ErrEmpty
	}
	if d <= 0 {
		return nil, fmt.Errorf("weblog: non-positive window %v", d)
	}
	first, last, err := s.Span()
	if err != nil {
		return nil, err
	}
	start := first.Truncate(d)
	var out []Window
	for t := start; !t.After(last); t = t.Add(d) {
		out = append(out, Window{
			Start:    t,
			Duration: d,
			Requests: len(s.Range(t, t.Add(d))),
		})
	}
	return out, nil
}

// WorkloadLevel identifies the paper's typical interval intensities.
type WorkloadLevel int

const (
	// Low is the least busy typical interval.
	Low WorkloadLevel = iota + 1
	// Med is the median-busy interval.
	Med
	// High is the busiest interval.
	High
)

// String names the level as in the paper's tables.
func (l WorkloadLevel) String() string {
	switch l {
	case Low:
		return "Low"
	case Med:
		return "Med"
	case High:
		return "High"
	default:
		return fmt.Sprintf("level(%d)", int(l))
	}
}

// SelectTypicalWindows picks typical Low, Med and High windows by total
// request count, as the paper does over its 42 four-hour intervals. The
// first and last windows are excluded when more than four are available
// (they are usually truncated by the trace boundaries and would
// misrepresent "low" as "almost empty"); among the remaining non-empty
// windows, Low is the 10th-percentile window, Med the median, and High
// the maximum.
func (s *Store) SelectTypicalWindows(d time.Duration) (map[WorkloadLevel]Window, error) {
	windows, err := s.Windows(d)
	if err != nil {
		return nil, err
	}
	if len(windows) > 4 {
		windows = windows[1 : len(windows)-1]
	}
	nonEmpty := windows[:0:0]
	for _, w := range windows {
		if w.Requests > 0 {
			nonEmpty = append(nonEmpty, w)
		}
	}
	if len(nonEmpty) < 3 {
		return nil, fmt.Errorf("weblog: only %d non-empty windows; need >= 3", len(nonEmpty))
	}
	sort.Slice(nonEmpty, func(i, j int) bool { return nonEmpty[i].Requests < nonEmpty[j].Requests })
	return map[WorkloadLevel]Window{
		Low:  nonEmpty[len(nonEmpty)/10],
		Med:  nonEmpty[len(nonEmpty)/2],
		High: nonEmpty[len(nonEmpty)-1],
	}, nil
}
