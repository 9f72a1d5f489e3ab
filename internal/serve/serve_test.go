package serve_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"fullweb/internal/admission"
	"fullweb/internal/faultpoint"
	"fullweb/internal/queueing"
	"fullweb/internal/serve"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
)

// fixtureBytes loads the committed deterministic trace shared with the
// stream package tests.
func fixtureBytes(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "stream", "testdata", "fixture.log"))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitLines cuts text into n consecutive parts on line boundaries —
// the per-source payloads whose concatenation is exactly text.
func splitLines(t testing.TB, text []byte, n int) [][]byte {
	t.Helper()
	lines := bytes.SplitAfter(text, []byte("\n"))
	if len(lines) > 0 && len(lines[len(lines)-1]) == 0 {
		lines = lines[:len(lines)-1]
	}
	parts := make([][]byte, n)
	per := (len(lines) + n - 1) / n
	for i := 0; i < n; i++ {
		lo := i * per
		hi := lo + per
		if lo > len(lines) {
			lo = len(lines)
		}
		if hi > len(lines) {
			hi = len(lines)
		}
		parts[i] = bytes.Join(lines[lo:hi], nil)
	}
	return parts
}

// engineConfig is the shared engine geometry for the equivalence
// tests: frequent snapshots so the run exercises periodic publication.
func engineConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.SnapshotEvery = 8 * time.Hour
	return cfg
}

// streamBaseline renders the full output of a plain stream engine over
// text — the byte-identity reference for every serve run.
func streamBaseline(t testing.TB, cfg stream.Config, text []byte) string {
	t.Helper()
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	final, err := eng.ProcessCtx(context.Background(), bytes.NewReader(text), func(s *stream.Snapshot) error {
		return s.Render(&out)
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := final.Render(&out); err != nil {
		t.Fatal(err)
	}
	return out.String()
}

// runResult is what a server's Run left: its rendered output, the
// final snapshot and the error.
type runResult struct {
	out   string
	final *stream.Snapshot
	err   error
}

// startServer spins up a serve.Server with bound HTTP and TCP
// listeners and Run started, and returns once /readyz answers 200 (or
// Run has already returned): Run installs the fault-carrying context
// before it publishes readiness, so no delivery can reach the intake
// sites before they are armed. The returned channel carries Run's
// result.
func startServer(t testing.TB, ctx context.Context, cfg serve.Config) (*serve.Server, string, string, <-chan runResult) {
	t.Helper()
	s, err := serve.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.StartHTTP(hln)
	t.Cleanup(func() { _ = s.Close() })
	tcpAddr := ""
	if cfg.WantTCP {
		tln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		s.StartTCP(tln)
		tcpAddr = tln.Addr().String()
	}
	ch := make(chan runResult, 1)
	go func() {
		var out bytes.Buffer
		final, err := s.Run(ctx, func(sn *stream.Snapshot) error { return sn.Render(&out) })
		if err == nil {
			err = final.Render(&out)
		}
		ch <- runResult{out: out.String(), final: final, err: err}
	}()
	base := "http://" + hln.Addr().String()
	deadline := time.Now().Add(5 * time.Second)
	for {
		select {
		case res := <-ch:
			ch <- res
			return s, base, tcpAddr, ch
		default:
		}
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s, base, tcpAddr, ch
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// postIngest delivers body to a source over HTTP, optionally gzipped,
// returning the response status.
func postIngest(t testing.TB, base, source string, body []byte, gz, complete bool) int {
	t.Helper()
	url := fmt.Sprintf("%s/ingest?source=%s", base, source)
	if complete {
		url += "&complete=1"
	}
	payload := body
	var hdr string
	if gz {
		var buf bytes.Buffer
		zw := gzip.NewWriter(&buf)
		if _, err := zw.Write(body); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		payload = buf.Bytes()
		hdr = "gzip"
	}
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	if hdr != "" {
		req.Header.Set("Content-Encoding", hdr)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// sendTCP streams body to the raw intake over one connection in small
// writes; closing the connection completes the source.
func sendTCP(t testing.TB, addr, source string, body []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "fullweb-intake %s\n", source); err != nil {
		t.Fatal(err)
	}
	const chunk = 4096
	for off := 0; off < len(body); off += chunk {
		end := off + chunk
		if end > len(body) {
			end = len(body)
		}
		if _, err := conn.Write(body[off:end]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestServeDeterminism is the PR's determinism gate: the fixture split
// across two HTTP sources (one gzipped, chunked deliveries) and one
// TCP source, fed concurrently in an arbitrary interleaving, must
// produce output byte-identical to `stream` over the concatenated
// file.
func TestServeDeterminism(t *testing.T) {
	text := fixtureBytes(t)
	want := streamBaseline(t, engineConfig(), text)
	parts := splitLines(t, text, 3)

	_, base, tcpAddr, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"s1", "s2", "s3"},
		WantTCP: true,
		Engine:  engineConfig(),
	})

	// Feed the three sources concurrently: s1 plain chunked HTTP, s2
	// raw TCP, s3 gzipped HTTP — delivery order across sources is
	// deliberately unsynchronized.
	done := make(chan struct{}, 3)
	go func() {
		defer func() { done <- struct{}{} }()
		chunks := splitLines(t, parts[0], 5)
		for _, c := range chunks {
			if code := postIngest(t, base, "s1", c, false, false); code != http.StatusOK {
				t.Errorf("s1 chunk: status %d", code)
			}
		}
		if code := postIngest(t, base, "s1", nil, false, true); code != http.StatusOK {
			t.Errorf("s1 complete: status %d", code)
		}
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		sendTCP(t, tcpAddr, "s2", parts[1])
	}()
	go func() {
		defer func() { done <- struct{}{} }()
		if code := postIngest(t, base, "s3", parts[2], true, true); code != http.StatusOK {
			t.Errorf("s3 gzip delivery: status %d", code)
		}
	}()
	for i := 0; i < 3; i++ {
		<-done
	}

	res := <-ch
	if res.err != nil {
		t.Fatalf("serve run: %v", res.err)
	}
	if res.out != want {
		t.Errorf("serve output differs from stream over concatenated file:\n--- want ---\n%s--- got ---\n%s", want, res.out)
	}
}

// TestServeCrashResume: kill the serve run at an injected fold fault,
// then resume a fresh server from the checkpoint and re-feed the same
// deliveries — the final output must be byte-identical to an
// uninterrupted serve run (and therefore to stream).
func TestServeCrashResume(t *testing.T) {
	text := fixtureBytes(t)
	baseCfg := engineConfig()
	baseCfg.SnapshotEvery = 4 * time.Hour
	want := streamBaseline(t, baseCfg, text)
	parts := splitLines(t, text, 2)
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "serve.ckpt")

	feed := func(base string) {
		if code := postIngest(t, base, "a", parts[0], false, true); code != http.StatusOK {
			t.Fatalf("source a: status %d", code)
		}
		if code := postIngest(t, base, "b", parts[1], true, true); code != http.StatusOK {
			t.Fatalf("source b: status %d", code)
		}
	}

	crashCfg := baseCfg
	crashCfg.Chunk.Lines = 64
	crashCfg.CheckpointPath = ckpt
	set, err := faultpoint.Parse("stream.fold=hit:20")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	_, base, _, ch := startServer(t, ctx, serve.Config{
		Sources: []string{"a", "b"},
		Engine:  crashCfg,
	})
	feed(base)
	res := <-ch
	if res.err == nil || !faultpoint.IsFault(res.err) {
		t.Fatalf("crashed run did not die on the injected fault: %v", res.err)
	}

	cp, err := stream.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("loading checkpoint after crash: %v", err)
	}
	resumeCfg := baseCfg
	resumeCfg.Chunk.Lines = 256
	resumeCfg.CheckpointPath = ckpt
	_, base2, _, ch2 := startServer(t, context.Background(), serve.Config{
		Sources:    []string{"a", "b"},
		Engine:     resumeCfg,
		Checkpoint: cp,
	})
	feed(base2)
	res2 := <-ch2
	if res2.err != nil {
		t.Fatalf("resumed run: %v", res2.err)
	}
	// The resumed run re-renders only the snapshots after the resume
	// point, so the byte-identity gate is on the final block (the same
	// comparison the CI crash-recovery drill makes).
	if got, want := finalBlock(t, res2.out), finalBlock(t, want); got != want {
		t.Errorf("resumed final snapshot differs from uninterrupted stream:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// finalBlock extracts the final-snapshot section of a rendered run.
func finalBlock(t *testing.T, out string) string {
	t.Helper()
	idx := strings.Index(out, "-- final @")
	if idx < 0 {
		t.Fatalf("no final block in output:\n%s", out)
	}
	return out[idx:]
}

// TestServeBackpressure: a non-active source hitting its buffer cap
// gets 429 (atomically: the whole delivery is refused), and the same
// delivery succeeds once the engine drains past it; an oversized
// delivery gets 413 outright.
func TestServeBackpressure(t *testing.T) {
	_, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources:     []string{"first", "second"},
		BufferBytes: 1 << 10,
		Engine:      engineConfig(),
	})

	// The engine waits on "first", so "second" only buffers.
	half := bytes.Repeat([]byte("x"), 600)
	if code := postIngest(t, base, "second", half, false, false); code != http.StatusOK {
		t.Fatalf("first delivery: status %d", code)
	}
	if code := postIngest(t, base, "second", half, false, false); code != http.StatusTooManyRequests {
		t.Fatalf("over-cap delivery: status %d, want 429", code)
	}
	if code := postIngest(t, base, "second", bytes.Repeat([]byte("y"), 2048), false, false); code != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized delivery: status %d, want 413", code)
	}
	if code := postIngest(t, base, "missing", []byte("z\n"), false, false); code != http.StatusNotFound {
		t.Fatalf("unknown source: status %d, want 404", code)
	}

	// Complete "first": the engine folds it, drains "second", and the
	// retried delivery now fits.
	if code := postIngest(t, base, "first", fixtureBytes(t)[:512], false, true); code != http.StatusOK {
		t.Fatalf("completing first: status %d", code)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		code := postIngest(t, base, "second", half, false, false)
		if code == http.StatusOK {
			break
		}
		if code != http.StatusTooManyRequests || time.Now().After(deadline) {
			t.Fatalf("retried delivery: status %d", code)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code := postIngest(t, base, "second", nil, false, true); code != http.StatusOK {
		t.Fatal("completing second failed")
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	// Appending to a completed source conflicts.
	if code := postIngest(t, base, "second", half, false, false); code != http.StatusConflict {
		t.Fatalf("post-complete delivery: status %d, want 409", code)
	}
}

// TestServeGzipInflationBounded: the intake cap applies to the
// inflated body, not only to the compressed bytes on the wire. A
// gzip body far under the cap that inflates 512× past it is refused
// with the oversized-delivery 413, and the server stops reading at
// the cap instead of buffering the whole inflated stream.
func TestServeGzipInflationBounded(t *testing.T) {
	const bufferBytes = 64 << 10
	const inflated = 512 * bufferBytes
	_, base, _, _ := startServer(t, context.Background(), serve.Config{
		Sources:     []string{"a"},
		BufferBytes: bufferBytes,
		Engine:      engineConfig(),
	})
	var body bytes.Buffer
	zw, err := gzip.NewWriterLevel(&body, gzip.BestCompression)
	if err != nil {
		t.Fatal(err)
	}
	zeros := make([]byte, 64<<10)
	for n := 0; n < inflated; n += len(zeros) {
		if _, err := zw.Write(zeros); err != nil {
			t.Fatal(err)
		}
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	if body.Len() > bufferBytes {
		t.Fatalf("compressed body is %d bytes, want it under the %d-byte cap", body.Len(), bufferBytes)
	}
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?source=a", &body)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	runtime.ReadMemStats(&after)

	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413", resp.StatusCode)
	}
	// The whole process's allocations during the request, client side
	// included, stay far below the inflated size.
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > inflated/8 {
		t.Fatalf("request allocated %d bytes for a %d-byte inflated body, want <= %d", alloc, inflated, inflated/8)
	}
}

// TestServeFaultSites exercises every registered intake fault site by
// name — serve.accept, serve.read and serve.flush — and checks each
// failure mode: accept refusal is 503, a read fault is 500, and a
// flush fault leaves the source incomplete so the retried completion
// succeeds.
func TestServeFaultSites(t *testing.T) {
	set, err := faultpoint.Parse("serve.accept=hit:1;serve.read=hit:2;serve.flush=hit:1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	_, base, _, ch := startServer(t, ctx, serve.Config{
		Sources: []string{"only"},
		Engine:  engineConfig(),
	})

	line := []byte("x.example - - [01/Jul/1995:00:00:01 -0400] \"GET / HTTP/1.0\" 200 100\n")
	// Hit 1 of serve.accept fires: the first delivery is refused before
	// its body is read.
	if code := postIngest(t, base, "only", line, false, false); code != http.StatusServiceUnavailable {
		t.Fatalf("accept-faulted delivery: status %d, want 503", code)
	}
	// serve.read hit 1 passes (this delivery), hit 2 fires on the next.
	if code := postIngest(t, base, "only", line, false, false); code != http.StatusOK {
		t.Fatalf("clean delivery: status %d", code)
	}
	if code := postIngest(t, base, "only", line, false, false); code != http.StatusInternalServerError {
		t.Fatalf("read-faulted delivery: status %d, want 500", code)
	}
	// serve.flush hit 1 fires: the completion is refused and the source
	// stays open — the retry then completes it.
	if code := postIngest(t, base, "only", nil, false, true); code != http.StatusServiceUnavailable {
		t.Fatalf("flush-faulted completion: status %d, want 503", code)
	}
	if code := postIngest(t, base, "only", nil, false, true); code != http.StatusOK {
		t.Fatalf("retried completion: status %d", code)
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	if res.final.Records != 1 {
		t.Fatalf("folded %d records, want exactly the one accepted delivery", res.final.Records)
	}
}

// TestServeReadyz: /readyz is 503 until the intake listeners are bound
// AND the engine has published — and a declared-but-unbound TCP
// listener keeps the gate closed even after binding HTTP.
func TestServeReadyz(t *testing.T) {
	s, err := serve.New(serve.Config{
		Sources: []string{"s"},
		WantTCP: true,
		Engine:  engineConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	status := func() (int, string) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/readyz", nil))
		return rec.Code, rec.Body.String()
	}
	if code, body := status(); code != http.StatusServiceUnavailable || !strings.Contains(body, "HTTP intake listener not bound") {
		t.Fatalf("fresh server readyz = %d %q", code, body)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.StartHTTP(hln)
	defer s.Close()
	if code, body := status(); code != http.StatusServiceUnavailable || !strings.Contains(body, "TCP intake listener not bound") {
		t.Fatalf("HTTP-only readyz = %d %q", code, body)
	}
	tln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.StartTCP(tln)
	// Listeners bound but nothing published yet.
	if code, body := status(); code != http.StatusServiceUnavailable || !strings.Contains(body, "no runtime published") {
		t.Fatalf("pre-publication readyz = %d %q", code, body)
	}
	ch := make(chan runResult, 1)
	go func() {
		final, rerr := s.Run(context.Background(), nil)
		ch <- runResult{final: final, err: rerr}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := status(); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never turned ready after listeners bound and Run started")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Feed one record and complete the source so the run finishes
	// cleanly (an all-empty run has no records to summarize).
	line := []byte("x.example - - [01/Jul/1995:00:00:01 -0400] \"GET / HTTP/1.0\" 200 100\n")
	if code := postIngest(t, "http://"+hln.Addr().String(), "s", line, false, true); code != http.StatusOK {
		t.Fatalf("delivery: status %d", code)
	}
	if res := <-ch; res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
}

// TestServeDrain: partial input with no completions, then Drain — the
// run folds what arrived and later deliveries are refused with 503.
func TestServeDrain(t *testing.T) {
	text := fixtureBytes(t)
	parts := splitLines(t, text, 4)
	want := streamBaseline(t, engineConfig(), parts[0])

	s, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"s1", "s2"},
		Engine:  engineConfig(),
	})
	if code := postIngest(t, base, "s1", parts[0], false, false); code != http.StatusOK {
		t.Fatalf("delivery: status %d", code)
	}
	s.Drain()
	res := <-ch
	if res.err != nil {
		t.Fatalf("drained run: %v", res.err)
	}
	if res.out != want {
		t.Errorf("drained output differs from stream over the delivered prefix:\n--- want ---\n%s--- got ---\n%s", want, res.out)
	}
	if code := postIngest(t, base, "s2", []byte("late\n"), false, false); code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain delivery: status %d, want 503", code)
	}
}

// TestServeFoldFaultWithOpenSources: a fold error while every source is
// still open ends Run with that error. The engine's scanner is then
// blocked waiting for input, and the intake must wake it so the engine
// can join it and return.
func TestServeFoldFaultWithOpenSources(t *testing.T) {
	// 150 lines: two whole 64-line chunks to fold, and a third the
	// scanner can only wait on.
	lines := bytes.SplitAfter(fixtureBytes(t), []byte("\n"))
	prefix := bytes.Join(lines[:150], nil)
	cfg := engineConfig()
	cfg.Chunk.Lines = 64
	set, err := faultpoint.Parse("stream.fold=hit:2")
	if err != nil {
		t.Fatal(err)
	}
	_, base, _, ch := startServer(t, faultpoint.With(context.Background(), set), serve.Config{
		Sources: []string{"a", "b"},
		Engine:  cfg,
	})
	if code := postIngest(t, base, "a", prefix, false, false); code != http.StatusOK {
		t.Fatalf("delivery: status %d", code)
	}
	select {
	case res := <-ch:
		if res.err == nil || !faultpoint.IsFault(res.err) {
			t.Fatalf("run did not die on the injected fault: %v", res.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Run did not return after a fold fault with open sources")
	}
}

// TestWhatIfMatchesOffline: the /whatif answer must agree exactly with
// recomputing the fluid, M/M/c and Erlang-B models offline from the
// same published arrival series and snapshot — the copy-on-publish
// contract makes the comparison deterministic.
func TestWhatIfMatchesOffline(t *testing.T) {
	text := fixtureBytes(t)
	s, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"all"},
		Engine:  engineConfig(),
	})
	if code := postIngest(t, base, "all", text, false, true); code != http.StatusOK {
		t.Fatalf("delivery: status %d", code)
	}
	if res := <-ch; res.err != nil {
		t.Fatalf("run: %v", res.err)
	}

	pub, ok := s.Holder().LatestArrivals()
	if !ok || pub.Series.Seconds() == 0 {
		t.Fatal("no arrival series published after the run")
	}
	meanReq, meanSess := pub.Series.MeanRates()
	if meanReq <= 0 || meanSess <= 0 {
		t.Fatalf("degenerate mean rates: req=%v sess=%v", meanReq, meanSess)
	}
	scale, servers, slots := 1.5, 2, 40
	capacity := 3 * meanReq * scale

	res, err := serve.ComputeWhatIf(s.Holder(), serve.WhatIfQuery{
		Scale: scale, Capacity: capacity, Servers: servers, Slots: slots,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Offline recomputation from the same published copies.
	scaled := make([]float64, pub.Series.Seconds())
	for i, v := range pub.Series.Requests {
		scaled[i] = v * scale
	}
	wantFluid, err := queueing.FluidQueue(scaled, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fluid != wantFluid {
		t.Errorf("fluid result differs from offline: got %+v want %+v", res.Fluid, wantFluid)
	}
	mmc, err := queueing.NewMMC(scale*meanReq, capacity/float64(servers), servers)
	if err != nil {
		t.Fatal(err)
	}
	if res.MMC == nil {
		t.Fatal("stable query returned no MMC view")
	}
	if got, want := res.MMC.WaitProb, mmc.ErlangC(); math.Abs(got-want) > 1e-12 {
		t.Errorf("wait prob %v, offline %v", got, want)
	}
	if got, want := res.MMC.MeanWait, mmc.MeanWait(); math.Abs(got-want) > 1e-12 {
		t.Errorf("mean wait %v, offline %v", got, want)
	}
	snap, _ := s.Holder().LatestSnapshot()
	meanLen := 0.0
	for _, c := range snap.Snapshot.Chars {
		if c.Name == "session-length-seconds" && c.N > 0 {
			meanLen = c.Mean
		}
	}
	if meanLen <= 0 {
		t.Fatal("no session-length estimate in the published snapshot")
	}
	wantBlock, err := admission.ErlangB(scale*meanSess*meanLen, slots)
	if err != nil {
		t.Fatal(err)
	}
	if res.Blocking == nil {
		t.Fatalf("no blocking view (note: %q)", res.BlockingNote)
	}
	if math.Abs(res.Blocking.BlockProb-wantBlock) > 1e-12 {
		t.Errorf("block prob %v, offline %v", res.Blocking.BlockProb, wantBlock)
	}

	// The HTTP surface returns the same answer (decoded through JSON,
	// so compare within float round-trip tolerance).
	url := fmt.Sprintf("%s/whatif?scale=%v&capacity=%v&servers=%d&slots=%d", base, scale, capacity, servers, slots)
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /whatif: status %d", resp.StatusCode)
	}
	var httpRes serve.WhatIfResult
	if err := json.NewDecoder(resp.Body).Decode(&httpRes); err != nil {
		t.Fatal(err)
	}
	if math.Abs(httpRes.Fluid.MeanBacklog-wantFluid.MeanBacklog) > 1e-9 {
		t.Errorf("HTTP fluid mean backlog %v, offline %v", httpRes.Fluid.MeanBacklog, wantFluid.MeanBacklog)
	}
	if httpRes.MMC == nil || math.Abs(httpRes.MMC.WaitProb-mmc.ErlangC()) > 1e-9 {
		t.Errorf("HTTP MMC differs: %+v", httpRes.MMC)
	}

	// An overloaded query reports instability instead of an MMC view.
	over, err := serve.ComputeWhatIf(s.Holder(), serve.WhatIfQuery{Scale: scale, Capacity: meanReq * scale / 2})
	if err != nil {
		t.Fatal(err)
	}
	if !over.Unstable || over.MMC != nil {
		t.Errorf("overloaded query: unstable=%v mmc=%v", over.Unstable, over.MMC)
	}

	// The end-of-run sweep derives from the same publications.
	sweep := serve.WhatIfSweep(s.Holder())
	if len(sweep) != 4 {
		t.Fatalf("sweep returned %d entries, want 4", len(sweep))
	}
	for _, entry := range sweep {
		if entry.ArrivalsSeq != pub.Seq {
			t.Errorf("sweep entry pinned to arrivals seq %d, want %d", entry.ArrivalsSeq, pub.Seq)
		}
	}
}

// TestWhatIfBeforeArrivals: a what-if query before any arrival
// publication is 503, and bad parameters are 400.
func TestWhatIfBeforeArrivals(t *testing.T) {
	s, err := serve.New(serve.Config{Sources: []string{"s"}, Engine: engineConfig()})
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, path, nil))
		return rec.Code
	}
	if code := get("/whatif?capacity=10"); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-arrivals whatif: status %d, want 503", code)
	}
	if code := get("/whatif"); code != http.StatusBadRequest {
		t.Fatalf("missing capacity: status %d, want 400", code)
	}
	if code := get("/whatif?capacity=-1"); code != http.StatusBadRequest {
		t.Fatalf("negative capacity: status %d, want 400", code)
	}
	if code := get("/whatif?capacity=10&scale=bogus"); code != http.StatusBadRequest {
		t.Fatalf("non-numeric scale: status %d, want 400", code)
	}
	if _, err := serve.ComputeWhatIf(s.Holder(), serve.WhatIfQuery{Scale: 1, Capacity: 1}); !errors.Is(err, serve.ErrNoArrivals) {
		t.Fatalf("ComputeWhatIf before arrivals: %v, want ErrNoArrivals", err)
	}
}

// setClock is a settable obs.Clock for pinned-time health checks.
type setClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *setClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *setClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// TestServeIntakeHealthWiring: the serve holder feeds the intake
// health rules — a silent incomplete source turns the report to warn
// on a pinned clock.
func TestServeIntakeHealthWiring(t *testing.T) {
	clock := &setClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
	s, err := serve.New(serve.Config{
		Sources: []string{"quiet"},
		Engine:  engineConfig(),
		Clock:   clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.StartHTTP(hln)
	defer s.Close()
	ch := make(chan runResult, 1)
	go func() {
		final, rerr := s.Run(context.Background(), nil)
		ch <- runResult{final: final, err: rerr}
	}()
	defer func() {
		s.Drain()
		<-ch
	}()

	get := func() string {
		resp, err := http.Get("http://" + hln.Addr().String() + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}
	if body := get(); !strings.Contains(body, `"source-staleness"`) || !strings.Contains(body, `"intake-buffer"`) {
		t.Fatalf("serve healthz missing intake rules:\n%s", body)
	}
	clock.Advance(telemetry.SourceStaleAfter + time.Second)
	if body := get(); !strings.Contains(body, "warn") || !strings.Contains(body, "quiet") {
		t.Fatalf("stale source did not warn:\n%s", body)
	}
}

// TestServeHealthRulesFollowWAL: serve always adds the intake rules to
// /healthz, and the journal rules only when it runs with a journal.
func TestServeHealthRulesFollowWAL(t *testing.T) {
	for _, tc := range []struct {
		name string
		wal  *serve.WALConfig
		want []string
	}{
		{"no journal", nil, []string{"source-staleness", "intake-buffer"}},
		{"journal", &serve.WALConfig{Dir: t.TempDir()}, []string{"source-staleness", "intake-buffer", "wal-lag", "wal-disk"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := serve.New(serve.Config{Sources: []string{"s"}, Engine: engineConfig(), WAL: tc.wal})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
			var rep telemetry.HealthReport
			if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
				t.Fatalf("healthz body: %v\n%s", err, rec.Body.String())
			}
			if len(rep.Rules) < 5 {
				t.Fatalf("healthz has %d rules, want the five engine rules first", len(rep.Rules))
			}
			var got []string
			for _, r := range rep.Rules[5:] {
				got = append(got, r.Rule)
			}
			if strings.Join(got, ",") != strings.Join(tc.want, ",") {
				t.Errorf("serve rules after the five engine rules: %v, want %v", got, tc.want)
			}
		})
	}
}
