package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// waitServeAddr polls a -listen-addr-file until the server writes its
// bound address, then polls /readyz until the intake (journal
// included) is ready to acknowledge deliveries.
func waitServeAddr(t *testing.T, addrFile string) string {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	var base string
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.TrimSpace(string(b)) != "" {
			base = "http://" + strings.TrimSpace(string(b))
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never wrote its address file")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return base
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("serve never became ready")
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// lockedBuffer is a bytes.Buffer safe to read while an in-process
// serve writes to it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// waitFinal polls an in-process serve's output until its final block
// has started.
func waitFinal(t *testing.T, out *lockedBuffer) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !strings.Contains(out.String(), "-- final @") {
		if time.Now().After(deadline) {
			t.Fatalf("serve never printed its final snapshot:\n%s", out.String())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// signalServe sends SIGTERM to this process, which an in-process serve
// (its handler installed) takes as the signal to drain and exit.
func signalServe(t *testing.T) {
	t.Helper()
	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
}

// chunkLines splits text into n consecutive line-aligned chunks.
func chunkLines(text []byte, n int) [][]byte {
	lines := bytes.SplitAfter(text, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	per := (len(lines) + n - 1) / n
	var chunks [][]byte
	for lo := 0; lo < len(lines); lo += per {
		hi := lo + per
		if hi > len(lines) {
			hi = len(lines)
		}
		chunks = append(chunks, bytes.Join(lines[lo:hi], nil))
	}
	return chunks
}

// TestServeWALCrashRecoveryCLI is the operator-facing chaos drill
// through the CLI: `serve -wal -checkpoint` journals stamped
// deliveries and is killed by an injected fold fault; `serve -wal
// -checkpoint -resume` then replays the journal while the client
// blindly redelivers every chunk with the same IDs. The recovered
// final snapshot must match an uninterrupted `stream` run byte for
// byte, and the run report must carry the journal's final state.
func TestServeWALCrashRecoveryCLI(t *testing.T) {
	log := streamTestLog(t)
	text, err := os.ReadFile(log)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runStream(t, "-log", log, "-snapshot", "6h")
	chunks := chunkLines(text, 8)

	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "serve.ckpt")
	report := filepath.Join(dir, "report.json")

	feed := func(base string) int {
		acked := 0
		for i, chunk := range chunks {
			url := fmt.Sprintf("%s/ingest?source=s1&delivery=c%d", base, i)
			resp, err := http.Post(url, "", bytes.NewReader(chunk))
			if err != nil {
				continue // the doomed run may die mid-feed
			}
			if resp.StatusCode == http.StatusOK {
				acked++
			}
			resp.Body.Close()
		}
		if resp, err := http.Post(base+"/ingest?source=s1&complete=1", "", nil); err == nil {
			resp.Body.Close()
		}
		return acked
	}

	// Run 1: journaling, checkpointing on WAL growth, killed by an
	// injected fold fault.
	addr1 := filepath.Join(dir, "addr1")
	errCh := make(chan error, 1)
	go func() {
		var out bytes.Buffer
		errCh <- run([]string{"serve", "-source", "s1",
			"-listen", "127.0.0.1:0", "-listen-addr-file", addr1,
			"-wal", walDir, "-wal-checkpoint-bytes", "8192",
			"-checkpoint", ckpt, "-chunk-lines", "64", "-snapshot", "6h",
			"-faults", "stream.fold=hit:8"}, &out)
	}()
	base := waitServeAddr(t, addr1)
	acked := feed(base)
	if acked == 0 {
		t.Fatal("doomed run acknowledged nothing; the drill needs journaled deliveries")
	}
	// A run the fault missed would serve until signalled.
	var rerr error
	select {
	case rerr = <-errCh:
	case <-time.After(30 * time.Second):
		signalServe(t)
		rerr = <-errCh
	}
	if rerr == nil || !strings.Contains(rerr.Error(), "injected fault") {
		t.Fatalf("run 1 did not die on the injected fault: %v", rerr)
	}

	// Run 2: -resume replays the journal (splicing the checkpoint if
	// one landed before the crash) and dedups the blind redelivery.
	// Once complete it keeps serving until signalled.
	addr2 := filepath.Join(dir, "addr2")
	var out2 lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-source", "s1",
			"-listen", "127.0.0.1:0", "-listen-addr-file", addr2,
			"-wal", walDir, "-checkpoint", ckpt, "-resume",
			"-snapshot", "6h", "-report", report}, &out2)
	}()
	base2 := waitServeAddr(t, addr2)
	feed(base2)
	waitFinal(t, &out2)
	signalServe(t)
	if rerr := <-done; rerr != nil {
		t.Fatalf("recovery run: %v", rerr)
	}
	if got, want := finalBlock(t, out2.String()), finalBlock(t, baseline); got != want {
		t.Fatalf("recovered final snapshot differs from uninterrupted stream:\n--- want ---\n%s--- got ---\n%s", want, got)
	}

	// The run report carries the journal's final published state.
	raw, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		WAL struct {
			JournaledBytes int64 `json:"journaled_bytes"`
			ReplayedBytes  int64 `json:"replayed_bytes"`
			Deliveries     int64 `json:"deliveries"`
		} `json:"wal"`
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		t.Fatal(err)
	}
	if rep.WAL.JournaledBytes != int64(len(text)) || rep.WAL.ReplayedBytes == 0 || rep.WAL.Deliveries != int64(len(chunks)) {
		t.Fatalf("report wal stats %+v, want %d journaled bytes over %d deliveries with a replayed prefix", rep.WAL, len(text), len(chunks))
	}
}

// TestServeAnswersUntilSignalled: once every source is complete, serve
// prints its final snapshot and keeps answering — /readyz with the
// final record count, /ingest with 409 — until SIGTERM, and only then
// returns, cleanly and with its listener closed.
func TestServeAnswersUntilSignalled(t *testing.T) {
	text, err := os.ReadFile(streamTestLog(t))
	if err != nil {
		t.Fatal(err)
	}
	want := int64(bytes.Count(text, []byte("\n")))
	addrFile := filepath.Join(t.TempDir(), "addr")
	var out lockedBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-source", "s1",
			"-listen", "127.0.0.1:0", "-listen-addr-file", addrFile,
			"-snapshot", "6h"}, &out)
	}()
	base := waitServeAddr(t, addrFile)
	resp, err := http.Post(base+"/ingest?source=s1&complete=1", "", bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delivery: status %d", resp.StatusCode)
	}
	waitFinal(t, &out)
	for i := 0; i < 3; i++ {
		time.Sleep(20 * time.Millisecond)
		select {
		case err := <-done:
			t.Fatalf("serve returned before the signal: %v", err)
		default:
		}
		resp, err := http.Get(base + "/readyz")
		if err != nil {
			t.Fatalf("readyz after completion: %v", err)
		}
		var ready struct {
			Ready   bool  `json:"ready"`
			Records int64 `json:"records"`
		}
		err = json.NewDecoder(resp.Body).Decode(&ready)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK || !ready.Ready || ready.Records != want {
			t.Fatalf("readyz after completion: %d %+v (%v), want ready with %d records", resp.StatusCode, ready, err, want)
		}
	}
	resp, err = http.Post(base+"/ingest?source=s1", "", strings.NewReader("late\n"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("delivery to a completed source: status %d, want 409", resp.StatusCode)
	}
	signalServe(t)
	if err := <-done; err != nil {
		t.Fatalf("serve after the signal: %v", err)
	}
	if resp, err := http.Get(base + "/readyz"); err == nil {
		resp.Body.Close()
		t.Fatal("listener still answering after serve returned")
	}
}

// TestServeWALUsageErrors: -resume now accepts -wal as its recovery
// source, but still refuses to run with neither.
func TestServeWALUsageErrors(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"serve", "-source", "s", "-listen", "127.0.0.1:0", "-resume"}, &out); err == nil || !strings.Contains(err.Error(), "-checkpoint or -wal") {
		t.Errorf("-resume without -checkpoint/-wal: %v", err)
	}
}
