package main

import (
	"bytes"
	"compress/gzip"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// streamTestLog generates a small deterministic trace once per test.
func streamTestLog(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.log")
	var out bytes.Buffer
	err := run([]string{"generate",
		"-profile", "NASA-Pub2", "-scale", "0.2", "-seed", "11", "-days", "2",
		"-out", path}, &out)
	if err != nil {
		t.Fatal(err)
	}
	return path
}

func runStream(t *testing.T, args ...string) string {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"stream"}, args...), &out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// afterHeader drops the "streaming <paths> ..." line, which names the
// input files and so differs between plain and gzip invocations.
func afterHeader(t *testing.T, out string) string {
	t.Helper()
	_, rest, ok := strings.Cut(out, "\n")
	if !ok {
		t.Fatalf("no header line in output:\n%s", out)
	}
	return rest
}

// TestStreamDeterministicOutput is the CLI half of the determinism
// gate: byte-identical stdout across runs and across worker counts.
func TestStreamDeterministicOutput(t *testing.T) {
	log := streamTestLog(t)
	first := runStream(t, "-log", log)
	if runStream(t, "-log", log) != first {
		t.Fatal("two identical runs produced different output")
	}
	if runStream(t, "-log", log, "-parallel", "1") != first {
		t.Fatal("-parallel 1 changed the output")
	}
	if runStream(t, "-log", log, "-parallel", "7", "-chunk-lines", "33", "-chunk-window", "2") != first {
		t.Fatal("chunk geometry changed the output")
	}
	for _, want := range []string{"-- snapshot @", "-- final @", "requests=", "alpha_Hill"} {
		if !strings.Contains(first, want) {
			t.Errorf("output missing %q:\n%s", want, first)
		}
	}
}

// TestStreamTracingInvariance: enabling -trace must not change stdout
// by a byte (the obs layer writes spans elsewhere).
func TestStreamTracingInvariance(t *testing.T) {
	log := streamTestLog(t)
	plain := runStream(t, "-log", log)
	traceFile := filepath.Join(t.TempDir(), "trace.jsonl")
	traced := runStream(t, "-log", log, "-trace", traceFile)
	if traced != plain {
		t.Fatal("tracing changed stdout")
	}
	info, err := os.Stat(traceFile)
	if err != nil || info.Size() == 0 {
		t.Fatalf("trace file not written: %v", err)
	}
}

// TestStreamMatchesAnalyzeTotals: the final snapshot's totals line uses
// the exact format of fullweb analyze's header, so the smoke check is a
// literal substring match.
func TestStreamMatchesAnalyzeTotals(t *testing.T) {
	log := streamTestLog(t)
	var analyzeOut bytes.Buffer
	if err := run([]string{"analyze", "-log", log}, &analyzeOut); err != nil {
		t.Fatal(err)
	}
	var totals string
	for _, line := range strings.Split(analyzeOut.String(), "\n") {
		if strings.Contains(line, "requests=") {
			totals = line
			break
		}
	}
	if totals == "" {
		t.Fatalf("no totals line in analyze output:\n%s", analyzeOut.String())
	}
	streamOut := runStream(t, "-log", log, "-snapshot", "0")
	if !strings.Contains(streamOut, totals+"\n") {
		t.Fatalf("stream output lacks analyze's totals line %q:\n%s", totals, streamOut)
	}
}

// TestStreamGzipAndRotatedInput: a gzip segment, alone or mixed with a
// plain segment, flows through the same pipeline.
func TestStreamGzipAndRotatedInput(t *testing.T) {
	log := streamTestLog(t)
	text, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	plain := afterHeader(t, runStream(t, "-log", log))

	gzPath := log + ".gz"
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(text); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzPath, gz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := afterHeader(t, runStream(t, "-log", gzPath)); got != plain {
		t.Fatal("gzip input produced different snapshots")
	}

	// Split into a compressed older segment and a plain newer one.
	lines := strings.SplitAfter(strings.TrimSuffix(string(text), "\n"), "\n")
	half := len(lines) / 2
	oldSeg := filepath.Join(t.TempDir(), "old.gz")
	newSeg := filepath.Join(t.TempDir(), "new.log")
	var oldGz bytes.Buffer
	zw2 := gzip.NewWriter(&oldGz)
	if _, err := zw2.Write([]byte(strings.Join(lines[:half], ""))); err != nil {
		t.Fatal(err)
	}
	if err := zw2.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(oldSeg, oldGz.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newSeg, []byte(strings.Join(lines[half:], "")), 0o644); err != nil {
		t.Fatal(err)
	}
	if got := afterHeader(t, runStream(t, "-log", oldSeg, "-log", newSeg)); got != plain {
		t.Fatal("rotated gz+plain segments produced different snapshots")
	}
}

func TestStreamUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"stream"}, &out); err == nil {
		t.Error("stream without -log should error")
	}
	if err := run([]string{"stream", "-log", ""}, &out); err == nil {
		t.Error("empty -log value should error")
	}
	if err := run([]string{"stream", "-log", "does-not-exist.log"}, &out); err == nil {
		t.Error("missing file should error")
	}
	log := streamTestLog(t)
	if err := run([]string{"stream", "-log", log, "-reservoir", "4"}, &out); err == nil {
		t.Error("tiny reservoir should be rejected by the engine")
	}
	if err := run([]string{"stream", "-log", log, "-quantile-cap", "17"}, &out); err == nil {
		t.Error("odd -quantile-cap should be rejected by the engine")
	}
}
