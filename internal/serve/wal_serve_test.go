// End-to-end journal tests over the HTTP surface: WAL-backed serve
// runs stay byte-identical to `stream`, delivery-ID redelivery is
// exactly-once (within a run and across a crash), crash recovery
// replays the journal — alone or spliced into a checkpoint resume —
// and a shedding journal degrades to 503 while the engine keeps
// folding what was acknowledged.

package serve_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	neturl "net/url"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/serve"
	"fullweb/internal/stream"
)

// waitReady polls /readyz until the server reports ready — with a
// journal configured, readiness includes Run having opened (and
// replayed) it.
func waitReady(t testing.TB, base string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := http.Get(base + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("server never became ready")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// ingestResponse is the /ingest acknowledgment body.
type ingestResponse struct {
	Source        string `json:"source"`
	AcceptedBytes int64  `json:"accepted_bytes"`
	Duplicate     bool   `json:"duplicate"`
	Error         string `json:"error"`
}

// postDelivery is postIngest with a delivery ID stamp, returning the
// decoded acknowledgment alongside the status.
func postDelivery(t testing.TB, base, source, id string, body []byte, complete bool) (int, ingestResponse) {
	t.Helper()
	url := fmt.Sprintf("%s/ingest?source=%s", base, source)
	if id != "" {
		url += "&delivery=" + neturl.QueryEscape(id)
	}
	if complete {
		url += "&complete=1"
	}
	resp, err := http.Post(url, "", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var ack ingestResponse
	_ = json.Unmarshal(raw, &ack)
	return resp.StatusCode, ack
}

// delivery is one stamped chunk of a source's feed, replayable across
// restarts with the same ID.
type delivery struct {
	source string
	id     string
	body   []byte
}

// stampedDeliveries splits text across sources into line-aligned,
// delivery-ID-stamped chunks whose in-order concatenation per source
// reproduces the split.
func stampedDeliveries(t testing.TB, text []byte, sources []string, chunksPer int) []delivery {
	t.Helper()
	parts := splitLines(t, text, len(sources))
	var all []delivery
	for i, src := range sources {
		for j, chunk := range splitLines(t, parts[i], chunksPer) {
			all = append(all, delivery{source: src, id: fmt.Sprintf("%s-%d", src, j), body: chunk})
		}
	}
	return all
}

// feedAll posts every delivery in order, tolerating refusals (the
// crash drills race feeds against a dying run), then tries to
// complete every source. It returns how many deliveries were
// acknowledged (accepted or deduplicated).
func feedAll(t testing.TB, base string, deliveries []delivery, sources []string) int {
	t.Helper()
	acked := 0
	for _, d := range deliveries {
		if code, _ := postDelivery(t, base, d.source, d.id, d.body, false); code == http.StatusOK {
			acked++
		}
	}
	for _, src := range sources {
		postDelivery(t, base, src, "", nil, true)
	}
	return acked
}

// TestServeWALDeterminism: a WAL-backed run fed stamped deliveries —
// every chunk immediately redelivered with the same ID — produces
// output byte-identical to `stream` over the concatenated file, folds
// each delivery exactly once, and acknowledges duplicates with the
// originally accepted byte count.
func TestServeWALDeterminism(t *testing.T) {
	text := fixtureBytes(t)
	want := streamBaseline(t, engineConfig(), text)
	sources := []string{"s1", "s2"}
	deliveries := stampedDeliveries(t, text, sources, 4)

	s, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: sources,
		Engine:  engineConfig(),
		WAL:     &serve.WALConfig{Dir: t.TempDir()},
	})
	for _, d := range deliveries {
		code, ack := postDelivery(t, base, d.source, d.id, d.body, false)
		if code != http.StatusOK || ack.Duplicate {
			t.Fatalf("delivery %s: code %d ack %+v", d.id, code, ack)
		}
		// The transport retries: same ID, same bytes. The fold must not.
		code, ack = postDelivery(t, base, d.source, d.id, d.body, false)
		if code != http.StatusOK || !ack.Duplicate || ack.AcceptedBytes != int64(len(d.body)) {
			t.Fatalf("redelivery %s: code %d ack %+v, want duplicate with %d bytes", d.id, code, ack, len(d.body))
		}
	}
	for _, src := range sources {
		if code, _ := postDelivery(t, base, src, "", nil, true); code != http.StatusOK {
			t.Fatalf("completing %s: code %d", src, code)
		}
	}
	res := <-ch
	if res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
	if res.out != want {
		t.Errorf("WAL-backed output differs from stream over concatenated file:\n--- want ---\n%s--- got ---\n%s", want, res.out)
	}
	pub, ok := s.Holder().LatestWAL()
	if !ok {
		t.Fatal("no journal publication after the run")
	}
	if pub.Stats.Deliveries != int64(len(deliveries)) || pub.Stats.Duplicates != int64(len(deliveries)) {
		t.Errorf("journal counted %d deliveries / %d duplicates, want %d / %d",
			pub.Stats.Deliveries, pub.Stats.Duplicates, len(deliveries), len(deliveries))
	}
}

// TestServeWALCrashReplay is the chaos drill without a checkpoint: the
// run is killed by an injected fold fault mid-stream, then restarted
// with -resume over the same journal while the client blindly
// redelivers EVERYTHING with the same IDs. Journal replay plus dedup
// must reconstruct the exact concatenation: the restarted run's full
// output is byte-identical to an uninterrupted stream run.
func TestServeWALCrashReplay(t *testing.T) {
	text := fixtureBytes(t)
	cfg := engineConfig()
	want := streamBaseline(t, cfg, text)
	sources := []string{"a", "b"}
	deliveries := stampedDeliveries(t, text, sources, 6)
	walDir := t.TempDir()

	crashCfg := cfg
	crashCfg.Chunk.Lines = 64
	set, err := faultpoint.Parse("stream.fold=hit:20")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	_, base, _, ch := startServer(t, ctx, serve.Config{
		Sources: sources,
		Engine:  crashCfg,
		WAL:     &serve.WALConfig{Dir: walDir},
	})
	acked := feedAll(t, base, deliveries, sources)
	res := <-ch
	if res.err == nil || !faultpoint.IsFault(res.err) {
		t.Fatalf("crashed run did not die on the injected fault: %v", res.err)
	}
	if acked == 0 {
		t.Fatal("crashed run acknowledged nothing; the drill needs journaled deliveries to replay")
	}

	s2, base2, _, ch2 := startServer(t, context.Background(), serve.Config{
		Sources: sources,
		Engine:  cfg,
		WAL:     &serve.WALConfig{Dir: walDir, Resume: true},
	})
	feedAll(t, base2, deliveries, sources)
	res2 := <-ch2
	if res2.err != nil {
		t.Fatalf("restarted run: %v", res2.err)
	}
	// No checkpoint: the journal replays from byte 0, so the whole
	// rendered output — every snapshot — must match, not just the final
	// block.
	if res2.out != want {
		t.Errorf("recovered output differs from uninterrupted stream:\n--- want ---\n%s--- got ---\n%s", want, res2.out)
	}
	pub, ok := s2.Holder().LatestWAL()
	if !ok || pub.Stats.ReplayedBytes == 0 {
		t.Errorf("restart did not report replayed journal bytes: %+v", pub.Stats)
	}
}

// TestServeWALCheckpointSplice is the chaos drill with checkpointing:
// the supervisor's WAL-growth cadence writes checkpoints during the
// doomed run, and the restart splices journal replay into the
// checkpoint resume — the recovered final snapshot is byte-identical
// to an uninterrupted run's.
func TestServeWALCheckpointSplice(t *testing.T) {
	text := fixtureBytes(t)
	cfg := engineConfig()
	cfg.SnapshotEvery = 4 * time.Hour
	want := streamBaseline(t, cfg, text)
	sources := []string{"a", "b"}
	deliveries := stampedDeliveries(t, text, sources, 6)
	dir := t.TempDir()
	walDir := filepath.Join(dir, "wal")
	ckpt := filepath.Join(dir, "serve.ckpt")

	crashCfg := cfg
	crashCfg.Chunk.Lines = 64
	crashCfg.CheckpointPath = ckpt
	set, err := faultpoint.Parse("stream.fold=hit:30")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	// A 4 KiB checkpoint cadence: the supervisor requests checkpoints
	// from journal growth well before the first snapshot boundary.
	_, base, _, ch := startServer(t, ctx, serve.Config{
		Sources: sources,
		Engine:  crashCfg,
		WAL:     &serve.WALConfig{Dir: walDir, CheckpointBytes: 4 << 10},
	})
	feedAll(t, base, deliveries, sources)
	res := <-ch
	if res.err == nil || !faultpoint.IsFault(res.err) {
		t.Fatalf("crashed run did not die on the injected fault: %v", res.err)
	}

	cp, err := stream.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("loading checkpoint after crash: %v", err)
	}
	if cp.SkipLines() == 0 {
		t.Fatal("supervisor never drove a checkpoint before the crash")
	}
	resumeCfg := cfg
	resumeCfg.Chunk.Lines = 256
	resumeCfg.CheckpointPath = ckpt
	_, base2, _, ch2 := startServer(t, context.Background(), serve.Config{
		Sources:    sources,
		Engine:     resumeCfg,
		Checkpoint: cp,
		WAL:        &serve.WALConfig{Dir: walDir, Resume: true},
	})
	feedAll(t, base2, deliveries, sources)
	res2 := <-ch2
	if res2.err != nil {
		t.Fatalf("resumed run: %v", res2.err)
	}
	if got, want := finalBlock(t, res2.out), finalBlock(t, want); got != want {
		t.Errorf("spliced resume differs from uninterrupted stream:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// TestServeWALShedRecovery: a journal write fault mid-run latches shed
// mode — the faulted delivery and everything after it get 503 while
// the engine keeps folding what was journaled — and a restart over the
// same journal with blind redelivery recovers the full input.
func TestServeWALShedRecovery(t *testing.T) {
	text := fixtureBytes(t)
	cfg := engineConfig()
	sources := []string{"only"}
	deliveries := stampedDeliveries(t, text, sources, 6)
	walDir := t.TempDir()

	set, err := faultpoint.Parse("serve.wal.append=hit:3")
	if err != nil {
		t.Fatal(err)
	}
	ctx := faultpoint.With(context.Background(), set)
	s, base, _, ch := startServer(t, ctx, serve.Config{
		Sources: sources,
		Engine:  cfg,
		WAL:     &serve.WALConfig{Dir: walDir},
	})
	var goodBytes []byte
	for i, d := range deliveries {
		code, _ := postDelivery(t, base, d.source, d.id, d.body, false)
		switch {
		case i < 2:
			if code != http.StatusOK {
				t.Fatalf("pre-fault delivery %d: code %d", i, code)
			}
			goodBytes = append(goodBytes, d.body...)
		default:
			// Delivery 3 hits the injected append fault; shed mode then
			// refuses the rest.
			if code != http.StatusServiceUnavailable {
				t.Fatalf("post-fault delivery %d: code %d, want 503", i, code)
			}
		}
	}
	// The degraded run still folds the journaled prefix to completion.
	s.Drain()
	res := <-ch
	if res.err != nil {
		t.Fatalf("shedding run: %v", res.err)
	}
	if want := streamBaseline(t, cfg, goodBytes); res.out != want {
		t.Errorf("shedding run did not fold the journaled prefix:\n--- want ---\n%s--- got ---\n%s", want, res.out)
	}
	// The shed state is on the health surface: wal-disk reports it.
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `"wal-disk"`) || !strings.Contains(string(body), "shedding") {
		t.Errorf("healthz does not surface the shed journal:\n%s", body)
	}

	// Restart over the same journal; the client redelivers everything.
	_, base2, _, ch2 := startServer(t, context.Background(), serve.Config{
		Sources: sources,
		Engine:  cfg,
		WAL:     &serve.WALConfig{Dir: walDir, Resume: true},
	})
	for _, d := range deliveries {
		if code, _ := postDelivery(t, base2, d.source, d.id, d.body, false); code != http.StatusOK {
			t.Fatalf("recovery delivery %s: code %d", d.id, code)
		}
	}
	if code, _ := postDelivery(t, base2, "only", "", nil, true); code != http.StatusOK {
		t.Fatal("completing recovered source failed")
	}
	res2 := <-ch2
	if res2.err != nil {
		t.Fatalf("recovered run: %v", res2.err)
	}
	if want := streamBaseline(t, cfg, text); res2.out != want {
		t.Errorf("recovered output differs from uninterrupted stream:\n--- want ---\n%s--- got ---\n%s", want, res2.out)
	}
}

// TestServeWALNotReady: between the HTTP listener binding and Run
// opening the journal, deliveries are refused 503 (a durable ack is
// impossible) and /readyz names the journal as the gate.
func TestServeWALNotReady(t *testing.T) {
	s, err := serve.New(serve.Config{
		Sources: []string{"s"},
		Engine:  engineConfig(),
		WAL:     &serve.WALConfig{Dir: t.TempDir()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s.StartHTTP(ln)
	defer s.Close()
	base := "http://" + ln.Addr().String()

	resp, err := http.Get(base + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "journal") {
		t.Fatalf("pre-Run readyz = %d %q", resp.StatusCode, body)
	}
	if code, _ := postDelivery(t, base, "s", "early", []byte("x\n"), false); code != http.StatusServiceUnavailable {
		t.Fatalf("pre-Run delivery: code %d, want 503", code)
	}

	ch := make(chan runResult, 1)
	go func() {
		final, rerr := s.Run(context.Background(), nil)
		ch <- runResult{final: final, err: rerr}
	}()
	waitReady(t, base)
	line := []byte("x.example - - [01/Jul/1995:00:00:01 -0400] \"GET / HTTP/1.0\" 200 100\n")
	if code, _ := postDelivery(t, base, "s", "early", line, true); code != http.StatusOK {
		t.Fatalf("post-Run delivery: code %d", code)
	}
	if res := <-ch; res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
}

// TestServeWALCheckpointConsistency: a checkpoint that skips further
// than the journal holds means acknowledged bytes were lost — the
// restart must refuse to splice rather than fold the wrong stream.
func TestServeWALCheckpointConsistency(t *testing.T) {
	text := fixtureBytes(t)
	cfg := engineConfig()
	cfg.SnapshotEvery = 4 * time.Hour
	dir := t.TempDir()
	ckpt := filepath.Join(dir, "serve.ckpt")

	// Build a real checkpoint from a journal-less run.
	ckptCfg := cfg
	ckptCfg.Chunk.Lines = 64
	ckptCfg.CheckpointPath = ckpt
	_, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"s"},
		Engine:  ckptCfg,
	})
	if code, _ := postDelivery(t, base, "s", "", text, true); code != http.StatusOK {
		t.Fatal("feeding checkpoint run failed")
	}
	if res := <-ch; res.err != nil {
		t.Fatalf("checkpoint run: %v", res.err)
	}
	cp, err := stream.LoadCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	if cp.SkipLines() == 0 {
		t.Fatal("checkpoint run never wrote a snapshot-boundary checkpoint")
	}

	// Resume it over an EMPTY journal: zero journaled lines cannot cover
	// the checkpoint's skip count.
	resumeCfg := cfg
	resumeCfg.CheckpointPath = ckpt
	s, err := serve.New(serve.Config{
		Sources:    []string{"s"},
		Engine:     resumeCfg,
		Checkpoint: cp,
		WAL:        &serve.WALConfig{Dir: filepath.Join(dir, "wal"), Resume: true},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(context.Background(), nil); err == nil || !strings.Contains(err.Error(), "lost acknowledged bytes") {
		t.Fatalf("splice over an empty journal: %v, want the lost-bytes refusal", err)
	}
}

// TestServePostCompleteBytes (satellite): a delivery to a completed
// source is answered 409 with the source's final accepted byte count,
// and a stamped redelivery of an already-accepted chunk is still
// acknowledged as a duplicate even after completion. Dedup works
// without a journal — the WAL only makes it survive restarts.
func TestServePostCompleteBytes(t *testing.T) {
	text := fixtureBytes(t)
	prefix := splitLines(t, text, 4)[0]
	_, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"s"},
		Engine:  engineConfig(),
	})
	if code, _ := postDelivery(t, base, "s", "d0", prefix, false); code != http.StatusOK {
		t.Fatal("delivery failed")
	}
	if code, _ := postDelivery(t, base, "s", "", nil, true); code != http.StatusOK {
		t.Fatal("completion failed")
	}
	code, ack := postDelivery(t, base, "s", "late", []byte("more\n"), false)
	if code != http.StatusConflict {
		t.Fatalf("post-complete delivery: code %d, want 409", code)
	}
	if ack.Error != "source already complete" || ack.AcceptedBytes != int64(len(prefix)) || ack.Source != "s" {
		t.Fatalf("409 body %+v, want accepted_bytes %d", ack, len(prefix))
	}
	// The retry of an accepted delivery still wins over the conflict.
	code, ack = postDelivery(t, base, "s", "d0", prefix, false)
	if code != http.StatusOK || !ack.Duplicate || ack.AcceptedBytes != int64(len(prefix)) {
		t.Fatalf("post-complete redelivery: code %d ack %+v", code, ack)
	}
	if res := <-ch; res.err != nil {
		t.Fatalf("run: %v", res.err)
	}
}

// TestServeDrainMidDelivery (satellite): a drain that begins while a
// gzip POST body is still arriving must reject the partial delivery
// whole — the fold sees either all of a delivery or none of it, so
// the drained output equals the baseline over what was acknowledged.
func TestServeDrainMidDelivery(t *testing.T) {
	text := fixtureBytes(t)
	parts := splitLines(t, text, 2)
	want := streamBaseline(t, engineConfig(), parts[0])

	s, base, _, ch := startServer(t, context.Background(), serve.Config{
		Sources: []string{"s"},
		Engine:  engineConfig(),
	})
	if code, _ := postDelivery(t, base, "s", "d0", parts[0], false); code != http.StatusOK {
		t.Fatal("prefix delivery failed")
	}

	// Stream the second delivery's gzip body through a pipe: half the
	// compressed bytes, then SIGTERM-equivalent drain, then the rest.
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(parts[1]); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	compressed := gz.Bytes()
	pr, pw := io.Pipe()
	req, err := http.NewRequest(http.MethodPost, base+"/ingest?source=s&delivery=d1", pr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Encoding", "gzip")
	respCh := make(chan *http.Response, 1)
	errCh := make(chan error, 1)
	go func() {
		resp, rerr := http.DefaultClient.Do(req)
		if rerr != nil {
			errCh <- rerr
			return
		}
		respCh <- resp
	}()
	if _, err := pw.Write(compressed[:len(compressed)/2]); err != nil {
		t.Fatal(err)
	}
	// The body is mid-flight: drain now, then let it finish arriving.
	s.Drain()
	res := <-ch
	if res.err != nil {
		t.Fatalf("drained run: %v", res.err)
	}
	if _, err := pw.Write(compressed[len(compressed)/2:]); err != nil {
		t.Fatal(err)
	}
	if err := pw.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-respCh:
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("mid-drain delivery: code %d, want 503 (whole-delivery rejection)", resp.StatusCode)
		}
	case rerr := <-errCh:
		t.Fatalf("mid-drain request: %v", rerr)
	case <-time.After(5 * time.Second):
		t.Fatal("mid-drain request never completed")
	}
	if res.out != want {
		t.Errorf("drained output must fold only acknowledged deliveries:\n--- want ---\n%s--- got ---\n%s", want, res.out)
	}
}
