package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileRefusesThinTail(t *testing.T) {
	for _, c := range []struct {
		p  float64
		n  int
		ok bool
	}{
		{99, 999, false}, {99, 1000, true}, {90, 99, false}, {90, 100, true}, {50, 1, true},
	} {
		_, err := percentile(seq(c.n), c.p)
		if (err == nil) != c.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%v", c.p, c.n, err, c.ok)
		}
		if err != nil && !errors.Is(err, errTooFewSamples) {
			t.Errorf("p%g of %d samples: err=%v, want errTooFewSamples", c.p, c.n, err)
		}
	}
	if v, _ := percentile(seq(1000), 99); v != 990 {
		t.Errorf("p99 of 1..1000 = %v, want 990", v)
	}
	if v, p := tail(seq(500)); p != 90 || v != 450 {
		t.Errorf("tail of 500 samples = p%g %v, want p90 450", p, v)
	}
	if v, p := tail(seq(5)); p != 100 || v != 5 {
		t.Errorf("tail of 5 samples = p%g %v, want the maximum", p, v)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// A sender slower than the schedule makes every later op late, and
// each op's latency counts from its due time, not its send time.
func TestLatenessAccounting(t *testing.T) {
	const n = 5
	step, work := 2*time.Millisecond, 6*time.Millisecond
	start := time.Now()
	samples := runSchedule(start, evenOffsets(n, n*step), nil, func(int) (int, []byte) {
		time.Sleep(work)
		return 200, nil
	})
	if len(samples) != n {
		t.Fatalf("got %d samples, want %d", len(samples), n)
	}
	for i, s := range samples {
		wantLate := time.Duration(i) * (work - step)
		if s.late() < wantLate {
			t.Errorf("op %d late %v, want at least %v", i, s.late(), wantLate)
		}
		if s.latency() < s.late()+work {
			t.Errorf("op %d latency %v excludes its lateness %v", i, s.latency(), s.late())
		}
		if !s.Due.Equal(start.Add(time.Duration(i) * step)) {
			t.Errorf("op %d due %v after start, want %v", i, s.Due.Sub(start), time.Duration(i)*step)
		}
	}
	if got := lateness(samples); len(got) != n || got[n-1] < ms(time.Duration(n-1)*(work-step)) {
		t.Errorf("lateness = %v", got)
	}
	stop := make(chan struct{})
	close(stop)
	if got := runSchedule(time.Now().Add(time.Hour), evenOffsets(3, time.Second), stop, nil); len(got) != 0 {
		t.Errorf("stopped schedule sent %d ops", len(got))
	}
}

func TestFreshness(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(msec int) time.Time { return t0.Add(time.Duration(msec) * time.Millisecond) }
	due := []time.Time{at(0), at(10), at(20)}
	cum := []int64{100, 200, 300}
	probes := []probe{{at(5), 50}, {at(15), 200}, {at(25), 250}}
	if fresh := freshness(due, cum, probes); len(fresh) != 2 || fresh[0] != 15 || fresh[1] != 5 {
		t.Errorf("fresh=%v, want [15 5]", fresh)
	}
}

func TestMetricNames(t *testing.T) {
	for _, good := range []string{"setup_s", "stream.fold_ns_per_record", "live-ingest", "go.gc_pause_ms"} {
		if !metricName.MatchString(good) {
			t.Errorf("%q rejected", good)
		}
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "ack{p99}", strings.Repeat("a", 65)} {
		if metricName.MatchString(bad) {
			t.Errorf("%q accepted", bad)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("set accepted a bad name")
		}
	}()
	metrics{}.set("bad name", 1, "ms")
}

// Every metric BENCHMARK.json declares is well formed, and the
// per-layer defaults name only declared metrics.
func TestDeclaredMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark")
	}
	var decl struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	declared := map[string]bool{}
	for _, m := range append(decl.EndToEnd, decl.PerLayer...) {
		if !metricName.MatchString(m.Name) || declared[m.Name] {
			t.Errorf("bad or repeated metric name %q", m.Name)
		}
		declared[m.Name] = true
	}
	m := metrics{}
	fillBatchDefaults(m)
	for name := range m {
		if !declared[name] {
			t.Errorf("default %q is not declared in BENCHMARK.json", name)
		}
	}
}

const sampleReport = `streaming wvu.log (threshold 30m0s, snapshot every 1h0m0s, budgeted mode)

-- snapshot @ 2004-01-12T01:00:10Z --
  requests=9,100 sessions=120 bytes=1,000 span=1h0m0s
-- final @ 2004-01-19T00:00:33Z --
  requests=1,590,414 sessions=18,822 bytes=3,545,951,190 span=168h0m23s
  request arrivals: H=0.820 (R^2 0.94, 15 levels, 604,824 s)
`

func TestComparatorsRejectCorruption(t *testing.T) {
	ref, err := finalBlock([]byte(sampleReport))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ref, []byte("-- final @")) {
		t.Fatalf("final block starts %q", ref[:20])
	}
	if err := checkTotals(ref, 1590414, 18822); err != nil {
		t.Errorf("true totals rejected: %v", err)
	}
	if err := checkTotals(ref, 1590414, 18823); err == nil {
		t.Error("wrong session count accepted")
	}
	if err := sameBytes("final", ref, ref); err != nil {
		t.Errorf("identical blocks rejected: %v", err)
	}
	corrupt := bytes.Replace(ref, []byte("H=0.820"), []byte("H=0.821"), 1)
	if err := sameBytes("final", ref, corrupt); err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Errorf("corrupted block: err=%v, want a difference at line 3", err)
	}
	if err := sameBytes("final", ref, ref[:len(ref)-1]); err == nil {
		t.Error("truncated block accepted")
	}
	if _, err := finalBlock([]byte("streaming x\n-- snapshot @ y --\n")); err == nil {
		t.Error("output without a final block accepted")
	}
}

func TestSplitDeliveries(t *testing.T) {
	data := []byte(strings.Repeat("a line of text\n", 100) + strings.Repeat("x", 300) + "\nend\n")
	pieces := splitDeliveries(data, 64)
	if got := bytes.Join(pieces, nil); !bytes.Equal(got, data) {
		t.Fatal("pieces do not reassemble the input")
	}
	for i, p := range pieces {
		if p[len(p)-1] != '\n' {
			t.Errorf("piece %d is not line aligned", i)
		}
		if len(p) > 64 && bytes.Count(p, newline) != 1 {
			t.Errorf("oversized piece %d holds %d lines", i, bytes.Count(p, newline))
		}
	}
}

func TestParseGCTrace(t *testing.T) {
	lines := []string{
		"gc 1 @0.011s 1%: 0.020+1.2+0.030 ms clock, 0.040+0.5/1.0/0+0.060 ms cpu, 3->4->1 MB, 4 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"gc 2 @0.050s 2%: 0.10+2.0+0.20 ms clock, 0.2+0/0/0+0.4 ms cpu, 4->4->2 MB, 5 MB goal, 0 MB stacks, 0 MB globals, 2 P",
		"not a gc line",
	}
	cycles, pause := parseGCTrace(lines)
	if cycles != 2 || pause < 0.349 || pause > 0.351 {
		t.Errorf("cycles=%d pause=%v, want 2 and 0.35", cycles, pause)
	}
}

func TestReadyzRecords(t *testing.T) {
	if n, ok := readyzRecords([]byte("{\n  \"ready\": true,\n  \"records\": 1234,\n  \"seq\": 7\n}\n")); !ok || n != 1234 {
		t.Errorf("got %d %v", n, ok)
	}
	if _, ok := readyzRecords([]byte(`{"ready": false}`)); ok {
		t.Error("parsed records from a body without them")
	}
}
