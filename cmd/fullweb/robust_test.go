package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// dirtyTestLog writes a generated trace with malformed lines
// interleaved, returning the path and the malformed lines in order.
func dirtyTestLog(t *testing.T) (string, []string) {
	t.Helper()
	clean := streamTestLog(t)
	text, err := os.ReadFile(clean)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	var junk []string
	for i, line := range strings.Split(strings.TrimSuffix(string(text), "\n"), "\n") {
		if i > 0 && i%97 == 0 {
			bad := fmt.Sprintf("### corrupted line %d ###", i)
			junk = append(junk, bad)
			out.WriteString(bad + "\n")
		}
		out.WriteString(line + "\n")
	}
	path := filepath.Join(t.TempDir(), "dirty.log")
	if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path, junk
}

// finalBlock cuts the output from the final snapshot onward.
func finalBlock(t *testing.T, out string) string {
	t.Helper()
	i := strings.Index(out, "-- final @")
	if i < 0 {
		t.Fatalf("no final snapshot in output:\n%s", out)
	}
	return out[i:]
}

// TestStreamCrashResumeCLI drives the crash-recovery path end to end
// through the CLI: a run killed by an injected fault is resumed with
// -resume — at a different worker count and chunk geometry — and must
// reproduce the uninterrupted run's final snapshot and quarantine
// byte for byte.
func TestStreamCrashResumeCLI(t *testing.T) {
	log, _ := dirtyTestLog(t)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "stream.ckpt")
	blQuar := filepath.Join(dir, "baseline.quarantine")
	quar := filepath.Join(dir, "crash.quarantine")

	baseline := runStream(t, "-log", log, "-snapshot", "4h", "-quarantine", blQuar)

	var crashOut bytes.Buffer
	err := run([]string{"stream", "-log", log, "-snapshot", "4h",
		"-chunk-lines", "64", "-checkpoint", ckpt, "-quarantine", quar,
		"-faults", "stream.fold=hit:5"}, &crashOut)
	if err == nil {
		t.Fatal("injected fault did not fail the run")
	}
	if !strings.Contains(crashOut.String(), "fault site stream.fold: hits=5 fires=1") {
		t.Fatalf("no fault summary after the faulted run:\n%s", crashOut.String())
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("no checkpoint written before the crash: %v", err)
	}

	resumed := runStream(t, "-log", log, "-snapshot", "4h",
		"-parallel", "3", "-chunk-lines", "500",
		"-checkpoint", ckpt, "-resume", "-quarantine", quar)
	if !strings.Contains(resumed, "resumed from "+ckpt) {
		t.Fatalf("resume did not announce itself:\n%s", resumed)
	}
	if got, want := finalBlock(t, resumed), finalBlock(t, baseline); got != want {
		t.Fatalf("resumed final snapshot differs:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
	gotQuar, err := os.ReadFile(quar)
	if err != nil {
		t.Fatal(err)
	}
	wantQuar, err := os.ReadFile(blQuar)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotQuar, wantQuar) {
		t.Fatalf("resumed quarantine differs: %d bytes vs %d", len(gotQuar), len(wantQuar))
	}
}

// TestStreamFaultsEnvFallback: FULLWEB_FAULTS arms the same injection
// as -faults.
func TestStreamFaultsEnvFallback(t *testing.T) {
	log := streamTestLog(t)
	t.Setenv("FULLWEB_FAULTS", "weblog.read=hit:1")
	var out bytes.Buffer
	err := run([]string{"stream", "-log", log}, &out)
	if err == nil || !strings.Contains(err.Error(), "injected fault") {
		t.Fatalf("FULLWEB_FAULTS not honored: %v", err)
	}
}

// TestStreamFoldFaultWithOpenInput: a fold fault while the input pipe
// is still open and quiet ends the run with the fault. The scanner is
// then parked in a Read on the pipe, and the run must wake it to
// return. The pipe is read as stdin (put in blocking mode first, as a
// shell hands it over) and through a -log path that names it.
func TestStreamFoldFaultWithOpenInput(t *testing.T) {
	data, err := os.ReadFile(streamTestLog(t))
	if err != nil {
		t.Fatal(err)
	}
	// 150 lines: two whole 64-line chunks to fold, and a third the
	// scanner can only wait on.
	prefix := bytes.Join(bytes.SplitAfter(data, []byte("\n"))[:150], nil)
	for _, via := range []string{"stdin", "path"} {
		t.Run(via, func(t *testing.T) {
			r, w, err := os.Pipe()
			if err != nil {
				t.Fatal(err)
			}
			// Closing the writer last ends a run the test gave up on.
			defer r.Close()
			defer w.Close()
			if _, err := w.Write(prefix); err != nil {
				t.Fatal(err)
			}
			logArg := "-"
			if via == "stdin" {
				r.Fd() // blocking mode, as an inherited stdin is
				old := os.Stdin
				os.Stdin = r
				defer func() { os.Stdin = old }()
			} else {
				logArg = fmt.Sprintf("/dev/fd/%d", r.Fd())
				if _, err := os.Stat(logArg); err != nil {
					t.Skipf("no %s: %v", logArg, err)
				}
			}
			done := make(chan error, 1)
			go func() {
				var out bytes.Buffer
				done <- run([]string{"stream", "-log", logArg, "-chunk-lines", "64",
					"-faults", "stream.fold=hit:2"}, &out)
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "injected fault") {
					t.Fatalf("run did not die on the injected fault: %v", err)
				}
			case <-time.After(30 * time.Second):
				t.Fatal("run did not return after a fold fault with its input open")
			}
		})
	}
}

// TestStreamModesCLI: the three ingestion modes through the CLI flags.
func TestStreamModesCLI(t *testing.T) {
	log, junk := dirtyTestLog(t)

	var out bytes.Buffer
	err := run([]string{"stream", "-log", log, "-mode", "strict"}, &out)
	if err == nil || !strings.Contains(err.Error(), "strict mode") {
		t.Fatalf("strict mode tolerated malformed input: %v", err)
	}

	quar := filepath.Join(t.TempDir(), "q.log")
	budgeted := runStream(t, "-log", log, "-snapshot", "0",
		"-max-rejects", "1", "-quarantine", quar)
	for _, want := range []string{"input: DEGRADED", "budget breach", "reject sample:"} {
		if !strings.Contains(budgeted, want) {
			t.Errorf("budgeted output missing %q:\n%s", want, budgeted)
		}
	}
	qbytes, err := os.ReadFile(quar)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(qbytes), strings.Join(junk, "\n")+"\n"; got != want {
		t.Errorf("quarantine content:\n%q\nwant:\n%q", got, want)
	}

	lenient := runStream(t, "-log", log, "-snapshot", "0", "-mode", "lenient")
	if !strings.Contains(lenient, "input: ok") || strings.Contains(lenient, "DEGRADED") {
		t.Errorf("lenient mode degraded:\n%s", lenient)
	}
	// Lenient mode spends no budget, so a budget flag there is a usage
	// error rather than a silently ignored setting.
	err = run([]string{"stream", "-log", log, "-snapshot", "0", "-mode", "lenient", "-max-rejects", "1"}, io.Discard)
	if err == nil || !strings.Contains(err.Error(), "-max-rejects applies only to -mode budgeted") {
		t.Errorf("lenient mode with -max-rejects: %v, want a usage error", err)
	}
}

// TestAnalyzeInputHealth: the batch front end surfaces the same
// reject accounting and DegradedInput verdict as the stream snapshots.
func TestAnalyzeInputHealth(t *testing.T) {
	log, junk := dirtyTestLog(t)

	quar := filepath.Join(t.TempDir(), "q.log")
	var out bytes.Buffer
	if err := run([]string{"analyze", "-log", log,
		"-max-rejects", "1", "-quarantine", quar}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"input: DEGRADED", "budget breach", "reject sample: line 98"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("analyze output missing %q", want)
		}
	}
	qbytes, err := os.ReadFile(quar)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := string(qbytes), strings.Join(junk, "\n")+"\n"; got != want {
		t.Errorf("quarantine content:\n%q\nwant:\n%q", got, want)
	}

	var strictOut bytes.Buffer
	err = run([]string{"analyze", "-log", log, "-mode", "strict"}, &strictOut)
	if err == nil || !strings.Contains(err.Error(), "line 98") {
		t.Fatalf("strict analyze error not positioned: %v", err)
	}
}

// TestRobustUsageErrors: flag validation for the robustness surface.
func TestRobustUsageErrors(t *testing.T) {
	log := streamTestLog(t)
	var out bytes.Buffer
	if err := run([]string{"stream", "-log", log, "-mode", "nonsense"}, &out); err == nil {
		t.Error("bad -mode accepted")
	}
	if err := run([]string{"stream", "-log", log, "-faults", "no-equals-sign"}, &out); err == nil {
		t.Error("bad -faults spec accepted")
	}
	if err := run([]string{"stream", "-log", log, "-resume"}, &out); err == nil {
		t.Error("-resume without -checkpoint accepted")
	}
	if err := run([]string{"stream", "-log", log, "-resume", "-checkpoint", "missing.ckpt"}, &out); err == nil {
		t.Error("-resume with a missing checkpoint accepted")
	}
	if err := run([]string{"analyze", "-log", log, "-mode", "nonsense"}, &out); err == nil {
		t.Error("analyze bad -mode accepted")
	}
}
