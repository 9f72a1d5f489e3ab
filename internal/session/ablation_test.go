package session

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"testing"
	"testing/quick"
	"time"

	"fullweb/internal/weblog"
)

// sessionizeSorted is the sessionizer's test oracle and the DESIGN.md
// ablation of its data-structure choice: it sorts one copy of the
// records by (host, time) and runs a single linear pass, instead of
// bucketing per host in a map. Results must be identical to Sessionize
// (map bucketing wins on partially sorted real logs, sort-merge on
// adversarial host cardinalities — see BenchmarkSessionizers).
func sessionizeSorted(records []weblog.Record, threshold time.Duration) ([]Session, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadThreshold, threshold)
	}
	sorted := make([]weblog.Record, len(records))
	copy(sorted, records)
	sort.SliceStable(sorted, func(i, j int) bool {
		if sorted[i].Host != sorted[j].Host {
			return sorted[i].Host < sorted[j].Host
		}
		return sorted[i].Time.Before(sorted[j].Time)
	})
	var sessions []Session
	var cur Session
	open := false
	flush := func() {
		if open {
			sessions = append(sessions, cur)
			open = false
		}
	}
	for _, r := range sorted {
		if open && (r.Host != cur.Host || r.Time.Sub(cur.End) > threshold) {
			flush()
		}
		if !open {
			cur = Session{Host: r.Host, Start: r.Time, End: r.Time}
			open = true
		}
		cur.End = r.Time
		cur.Requests++
		cur.Bytes += r.Bytes
		if r.IsError() {
			cur.Errors++
		}
	}
	flush()
	sortSessions(sessions)
	return sessions, nil
}

// randomRecords builds a log with hostCount hosts and n records over
// spanSeconds.
func randomRecords(rng *rand.Rand, n, hostCount int, spanSeconds int64) []weblog.Record {
	records := make([]weblog.Record, n)
	for i := range records {
		records[i] = rec(
			"h"+strconv.Itoa(rng.Intn(hostCount)),
			rng.Int63n(spanSeconds),
			200,
			int64(rng.Intn(5000)),
		)
	}
	return records
}

// TestSessionizersEquivalentProperty: the map-based and sort-based
// sessionizers must agree exactly on any input.
func TestSessionizersEquivalentProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		records := randomRecords(rng, 1+rng.Intn(400), 1+rng.Intn(12), 200000)
		a, err1 := Sessionize(records, 10*time.Minute)
		b, err2 := sessionizeSorted(records, 10*time.Minute)
		if err1 != nil || err2 != nil || len(a) != len(b) {
			return false
		}
		// Every sessionizer variant emits the canonical (start, host)
		// order, so equality is exact — order included. This guards the
		// determinism the parallel engine depends on: map-bucketing must
		// not leak map iteration order into the output (tied start times
		// are common at one-second log granularity, and downstream
		// floating-point accumulations are order-sensitive).
		for i := range a {
			if a[i] != b[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestSessionizeSortedErrors(t *testing.T) {
	if _, err := sessionizeSorted(nil, time.Minute); err == nil {
		t.Error("empty input should error")
	}
	if _, err := sessionizeSorted([]weblog.Record{rec("a", 0, 200, 1)}, 0); err == nil {
		t.Error("zero threshold should error")
	}
}

// BenchmarkSessionizers is the DESIGN.md ablation of the sessionizer
// data structure.
func BenchmarkSessionizers(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	scenarios := []struct {
		name      string
		hostCount int
	}{
		{"few-hosts", 50},
		{"many-hosts", 20000},
	}
	for _, sc := range scenarios {
		records := randomRecords(rng, 200000, sc.hostCount, 604800)
		b.Run("map-"+sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Sessionize(records, DefaultThreshold); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run("sort-"+sc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sessionizeSorted(records, DefaultThreshold); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
