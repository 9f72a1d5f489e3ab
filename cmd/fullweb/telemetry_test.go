package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fullweb/internal/report"
	"fullweb/internal/telemetry"
)

// scrape polls the telemetry service whose address lands in addrFile:
// it waits for the listener, then hammers /metrics, /snapshot, /healthz
// and /readyz until stop closes, returning how many full rounds
// succeeded and the last /snapshot body it saw.
func scrape(t *testing.T, addrFile string, stop <-chan struct{}) (rounds *int64, lastSnapshot *[]byte, done *sync.WaitGroup) {
	t.Helper()
	var n int64
	var last []byte
	var wg sync.WaitGroup
	wg.Add(1)
	//lint:allow rawgo test scraper thread; joined via WaitGroup before any assertion
	go func() {
		defer wg.Done()
		var base string
		for i := 0; i < 1000; i++ {
			b, err := os.ReadFile(addrFile)
			if err == nil && len(b) > 0 {
				base = "http://" + strings.TrimSpace(string(b))
				break
			}
			select {
			case <-stop:
				return
			case <-time.After(10 * time.Millisecond):
			}
		}
		if base == "" {
			return
		}
		client := &http.Client{Timeout: 2 * time.Second}
		get := func(path string) ([]byte, bool) {
			resp, err := client.Get(base + path)
			if err != nil {
				return nil, false
			}
			defer resp.Body.Close()
			var buf bytes.Buffer
			if _, err := buf.ReadFrom(resp.Body); err != nil {
				return nil, false
			}
			return buf.Bytes(), resp.StatusCode == http.StatusOK
		}
		for {
			select {
			case <-stop:
				return
			default:
			}
			m, mok := get("/metrics")
			s, sok := get("/snapshot")
			_, _ = get("/healthz")
			_, _ = get("/readyz")
			if mok && sok && bytes.Contains(m, []byte("fullweb_")) {
				n++
				last = append(last[:0], s...)
			}
		}
	}()
	return &n, &last, &wg
}

// TestStreamListenEquivalence is the telemetry acceptance gate: a run with
// the telemetry service up and a concurrent scraper hammering
// it produces stdout byte-identical to the same run with -listen off.
func TestStreamListenEquivalence(t *testing.T) {
	log := streamTestLog(t)
	baseline := runStream(t, "-log", log)

	dir := t.TempDir()
	addrFile := filepath.Join(dir, "addr.txt")
	stop := make(chan struct{})
	rounds, lastSnap, wg := scrape(t, addrFile, stop)

	// -linger holds the service up briefly after the run so the scraper
	// is guaranteed to observe the final published state.
	listened := runStream(t, "-log", log,
		"-listen", "127.0.0.1:0", "-listen-addr-file", addrFile,
		"-linger", "1s")
	close(stop)
	wg.Wait()

	if listened != baseline {
		t.Errorf("-listen changed stdout:\nbaseline:\n%s\nlistened:\n%s", baseline, listened)
	}
	if *rounds == 0 {
		t.Fatal("scraper never completed a successful round against the live service")
	}
	var snap telemetry.PublishedSnapshot
	if err := json.Unmarshal(*lastSnap, &snap); err != nil {
		t.Fatalf("last /snapshot body not JSON: %v\n%s", err, *lastSnap)
	}
	if snap.Snapshot == nil || snap.Snapshot.Records == 0 {
		t.Errorf("last snapshot carries no records: %+v", snap)
	}
	if !snap.Snapshot.Final {
		t.Errorf("snapshot scraped during linger should be the final one: %+v", snap)
	}
}

// readReport decodes and format-checks a run report file.
func readReport(t *testing.T, path string) telemetry.RunReport {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.RunReport
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("run report not JSON: %v", err)
	}
	if rep.Format != telemetry.ReportFormat || rep.Version != telemetry.ReportVersion {
		t.Fatalf("report identity %q v%d, want %q v%d", rep.Format, rep.Version, telemetry.ReportFormat, telemetry.ReportVersion)
	}
	return rep
}

func TestStreamRunReport(t *testing.T) {
	log := streamTestLog(t)
	path := filepath.Join(t.TempDir(), "report.json")
	// A never-firing fault site proves hit accounting lands in the
	// report without perturbing the run.
	runStream(t, "-log", log, "-reservoir", "512", "-report", path,
		"-faults", "stream.fold=hit:999999999")

	rep := readReport(t, path)
	if rep.Tool != "stream" {
		t.Errorf("tool %q", rep.Tool)
	}
	if len(rep.Inputs) != 1 || rep.Inputs[0] != log {
		t.Errorf("inputs %v", rep.Inputs)
	}
	if rep.Verdict != "ok" {
		t.Errorf("verdict %q, want ok", rep.Verdict)
	}
	if rep.Totals.Records == 0 || rep.Totals.Sessions == 0 || rep.Totals.SpanSeconds <= 0 {
		t.Errorf("empty totals %+v", rep.Totals)
	}
	if rep.Snapshots == 0 {
		t.Error("no snapshots counted")
	}
	if len(rep.Characteristics) != 3 {
		t.Errorf("%d characteristics, want 3", len(rep.Characteristics))
	}
	for _, c := range rep.Characteristics {
		if c.N == 0 || c.P50 <= 0 {
			t.Errorf("characteristic %q looks empty: %+v", c.Name, c)
		}
	}
	cfg, ok := rep.Config.(map[string]any)
	if !ok {
		t.Fatalf("config is %T, want object", rep.Config)
	}
	if cfg["reservoir_cap"] != float64(512) {
		t.Errorf("config reservoir_cap = %v, want 512", cfg["reservoir_cap"])
	}
	if len(rep.Faults) != 1 || rep.Faults[0].Site != "stream.fold" || rep.Faults[0].Hits == 0 || rep.Faults[0].Fires != 0 {
		t.Errorf("fault stats %+v", rep.Faults)
	}
	if len(rep.Obs.Counters) == 0 {
		t.Error("obs snapshot has no counters")
	}
}

// TestStreamRunReportDegraded: a breached error budget surfaces as the
// "degraded" verdict in the report while the run still completes.
func TestStreamRunReportDegraded(t *testing.T) {
	log := streamTestLog(t)
	dirty := filepath.Join(t.TempDir(), "dirty.log")
	content, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	content = append(content, []byte("garbage line one\ngarbage line two\n")...)
	if err := os.WriteFile(dirty, content, 0o644); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "report.json")
	runStream(t, "-log", dirty, "-mode", "budgeted", "-max-rejects", "1", "-report", path)

	rep := readReport(t, path)
	if rep.Verdict != "degraded" {
		t.Errorf("verdict %q, want degraded", rep.Verdict)
	}
	if rep.Ingest.Rejected != 2 || !rep.Ingest.Degraded {
		t.Errorf("ingest %+v", rep.Ingest)
	}
}

func TestAnalyzeRunReport(t *testing.T) {
	log := streamTestLog(t)
	path := filepath.Join(t.TempDir(), "report.json")
	var out bytes.Buffer
	if err := run([]string{"analyze", "-log", log, "-server", "test", "-report", path}, &out); err != nil {
		t.Fatal(err)
	}

	rep := readReport(t, path)
	if rep.Tool != "analyze" {
		t.Errorf("tool %q", rep.Tool)
	}
	if rep.Verdict != "ok" {
		t.Errorf("verdict %q", rep.Verdict)
	}
	if rep.Totals.Records == 0 || rep.Totals.Sessions == 0 {
		t.Errorf("empty totals %+v", rep.Totals)
	}
	// The stdout header and the report must agree on the totals.
	want := fmt.Sprintf("requests=%s", report.Count(rep.Totals.Records))
	if !strings.Contains(out.String(), want) {
		t.Errorf("stdout lacks %q:\n%s", want, out.String())
	}
	if len(rep.Characteristics) != 3 {
		t.Errorf("%d characteristics, want 3", len(rep.Characteristics))
	}
	for _, c := range rep.Characteristics {
		if c.N == 0 || !c.HillOK {
			t.Errorf("characteristic %q: %+v", c.Name, c)
		}
	}
	cfg, ok := rep.Config.(map[string]any)
	if !ok || cfg["server"] != "test" {
		t.Errorf("config %+v", rep.Config)
	}
	if len(rep.Obs.Counters) == 0 {
		t.Error("obs snapshot has no counters")
	}
}

// TestStreamHealthzReadsEngineFlags: the /healthz rules of `fullweb
// stream -listen` follow the engine flags they watch — the parse
// window, the quarantine sink and the checkpoint path.
func TestStreamHealthzReadsEngineFlags(t *testing.T) {
	log := streamTestLog(t)
	cases := []struct {
		name  string
		flags func(dir string) []string
		// detail substrings of the three rules
		backpressure, quarantine, checkpoint string
	}{
		{"configured", func(dir string) []string {
			return []string{"-chunk-window", "3", "-quarantine", filepath.Join(dir, "q"), "-checkpoint", filepath.Join(dir, "c")}
		}, "of window 3", "(max 1048576)", "last checkpoint"},
		{"defaults", func(string) []string { return nil },
			"of window 8", "no quarantine growth bound configured", "checkpointing disabled"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			addrFile := filepath.Join(dir, "addr.txt")
			args := append([]string{"stream", "-log", log, "-listen", "127.0.0.1:0", "-listen-addr-file", addrFile, "-linger", "2s"}, tc.flags(dir)...)
			done := make(chan error, 1)
			//lint:allow rawgo in-process CLI run; joined on done before the test returns
			go func() { done <- run(args, io.Discard) }()
			defer func() {
				if err := <-done; err != nil {
					t.Errorf("stream: %v", err)
				}
			}()

			// Ready means the first runtime view is published; the final
			// one lands before -linger, so poll until the quarantine rule
			// has two publications to compare.
			base := waitServeAddr(t, addrFile)
			var rep telemetry.HealthReport
			rules := map[string]string{}
			for deadline := time.Now().Add(10 * time.Second); ; {
				resp, err := http.Get(base + "/healthz")
				if err != nil {
					t.Fatal(err)
				}
				err = json.NewDecoder(resp.Body).Decode(&rep)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range rep.Rules {
					rules[r.Rule] = r.Detail
				}
				if !strings.HasPrefix(rules["quarantine"], "warming up") || time.Now().After(deadline) {
					break
				}
				time.Sleep(10 * time.Millisecond)
			}
			for rule, want := range map[string]string{
				"backpressure": tc.backpressure,
				"quarantine":   tc.quarantine,
				"checkpoint":   tc.checkpoint,
			} {
				if !strings.Contains(rules[rule], want) {
					t.Errorf("%s detail %q, want it to contain %q", rule, rules[rule], want)
				}
			}
		})
	}
}
