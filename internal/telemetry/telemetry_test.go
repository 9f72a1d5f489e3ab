package telemetry_test

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
)

// setClock is a settable obs.Clock: unlike obs.ManualClock it does not
// auto-advance, so a test pins publication and evaluation times
// exactly on the health-rule boundaries.
type setClock struct {
	mu  sync.Mutex
	now time.Time
}

func newSetClock(t0 time.Time) *setClock { return &setClock{now: t0} }

func (c *setClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *setClock) Set(t time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = t
}

var epoch = time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)

// ruleByName pulls one rule out of a health report.
func ruleByName(t *testing.T, rep telemetry.HealthReport, name string) telemetry.RuleResult {
	t.Helper()
	for _, r := range rep.Rules {
		if r.Rule == name {
			return r
		}
	}
	t.Fatalf("no rule %q in report %+v", name, rep)
	return telemetry.RuleResult{}
}

func TestHolderSequencing(t *testing.T) {
	clock := newSetClock(epoch)
	h := telemetry.NewHolder(clock)

	if _, _, ok := h.LatestRuntime(); ok {
		t.Fatal("LatestRuntime ok before any publication")
	}
	if _, ok := h.LatestSnapshot(); ok {
		t.Fatal("LatestSnapshot ok before any publication")
	}
	if got := h.LastCheckpointAt(); !got.Equal(epoch) {
		t.Fatalf("LastCheckpointAt before publications = %v, want holder start %v", got, epoch)
	}

	h.PublishRuntime(stream.RuntimeStats{Records: 10})
	cur, prev, ok := h.LatestRuntime()
	if !ok || cur.Seq != 1 || prev != nil {
		t.Fatalf("first publication: seq=%d prev=%v ok=%v", cur.Seq, prev, ok)
	}
	clock.Set(epoch.Add(time.Minute))
	h.PublishRuntime(stream.RuntimeStats{Records: 25})
	cur, prev, _ = h.LatestRuntime()
	if cur.Seq != 2 || prev == nil || prev.Seq != 1 || prev.Stats.Records != 10 {
		t.Fatalf("second publication: cur=%+v prev=%+v", cur, prev)
	}
	if cur.Stats.Records != 25 {
		t.Fatalf("cur records = %d, want 25", cur.Stats.Records)
	}

	h.PublishSnapshot(&stream.Snapshot{Records: 25})
	snap, ok := h.LatestSnapshot()
	if !ok || snap.Seq != 1 || snap.Snapshot.Records != 25 {
		t.Fatalf("snapshot publication: %+v ok=%v", snap, ok)
	}
}

// TestHolderCheckpointStamps: the holder stamps the checkpoint
// reference point only when the counter increases, and treats a
// resumed run's pre-existing checkpoints as fresh at first publication.
func TestHolderCheckpointStamps(t *testing.T) {
	clock := newSetClock(epoch)
	h := telemetry.NewHolder(clock)

	clock.Set(epoch.Add(time.Minute))
	h.PublishRuntime(stream.RuntimeStats{})
	if got := h.LastCheckpointAt(); !got.Equal(epoch) {
		t.Fatalf("no checkpoints yet: LastCheckpointAt = %v, want start %v", got, epoch)
	}
	clock.Set(epoch.Add(2 * time.Minute))
	h.PublishRuntime(stream.RuntimeStats{Checkpoints: 1})
	if got, want := h.LastCheckpointAt(), epoch.Add(2*time.Minute); !got.Equal(want) {
		t.Fatalf("checkpoint increase not stamped: %v, want %v", got, want)
	}
	clock.Set(epoch.Add(3 * time.Minute))
	h.PublishRuntime(stream.RuntimeStats{Checkpoints: 1})
	if got, want := h.LastCheckpointAt(), epoch.Add(2*time.Minute); !got.Equal(want) {
		t.Fatalf("unchanged count restamped: %v, want %v", got, want)
	}

	// Resumed run: first publication already carries checkpoints.
	resumed := telemetry.NewHolder(clock)
	clock.Set(epoch.Add(10 * time.Minute))
	resumed.PublishRuntime(stream.RuntimeStats{Checkpoints: 7})
	if got, want := resumed.LastCheckpointAt(), epoch.Add(10*time.Minute); !got.Equal(want) {
		t.Fatalf("resumed run not stamped fresh: %v, want %v", got, want)
	}
}

// TestHealthBudgetBoundaries pins the ingest-budget rule's edge: the
// engine's breach comparisons are strictly greater-than, so a budget
// exactly exhausted is a warn, one past it a fail.
func TestHealthBudgetBoundaries(t *testing.T) {
	cfg := telemetry.HealthConfig{Engine: stream.Config{
		Mode:   stream.ModeBudgeted,
		Budget: stream.Budget{MaxRejects: 10},
	}}
	cases := []struct {
		name       string
		rejected   int64
		status     string
		healthy    bool
		detailPart string
	}{
		{"well under budget", 5, "ok", true, "burn 50%"},
		{"warn fraction", 8, "warn", true, "burn 80%"},
		{"exactly exhausted", 10, "warn", true, "exactly exhausted"},
		{"breached", 11, "fail", false, "error budget breached"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clock := newSetClock(epoch)
			holder := telemetry.NewHolder(clock)
			holder.PublishRuntime(stream.RuntimeStats{
				Records: 1000,
				Ingest:  stream.IngestStats{Rejected: tc.rejected, Malformed: tc.rejected},
			})
			h := telemetry.NewHealth(cfg, holder, obs.NewRegistry(), clock)
			rep := h.Evaluate()
			r := ruleByName(t, rep, "ingest-budget")
			if r.Status != tc.status {
				t.Errorf("status = %q, want %q (detail %q)", r.Status, tc.status, r.Detail)
			}
			if rep.Healthy != tc.healthy {
				t.Errorf("Healthy = %v, want %v", rep.Healthy, tc.healthy)
			}
			if !strings.Contains(r.Detail, tc.detailPart) {
				t.Errorf("detail %q missing %q", r.Detail, tc.detailPart)
			}
		})
	}
}

// TestHealthZeroRecordRun: before the engine publishes anything the
// process is unready but healthy — no rule may fail on an empty run.
func TestHealthZeroRecordRun(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	cfg := telemetry.HealthConfig{Engine: stream.Config{
		Mode:           stream.ModeBudgeted,
		Budget:         stream.Budget{MaxRejects: 1},
		CheckpointPath: "engine.ckpt",
	}}
	h := telemetry.NewHealth(cfg, holder, obs.NewRegistry(), clock)
	clock.Set(epoch.Add(24 * time.Hour)) // way past any staleness bound
	rep := h.Evaluate()
	if rep.Ready {
		t.Error("Ready before first publication")
	}
	if !rep.Healthy {
		t.Errorf("zero-record run unhealthy: %+v", rep.Rules)
	}
	for _, name := range []string{"ingest-budget", "checkpoint"} {
		if r := ruleByName(t, rep, name); r.Detail != "no runtime published yet" {
			t.Errorf("%s detail = %q, want warm-up message", name, r.Detail)
		}
	}

	// A published zero-record run becomes ready and stays healthy
	// (fresh holder so the staleness clock starts at the publication).
	clock.Set(epoch)
	holder2 := telemetry.NewHolder(clock)
	holder2.PublishRuntime(stream.RuntimeStats{})
	h2 := telemetry.NewHealth(cfg, holder2, obs.NewRegistry(), clock)
	rep = h2.Evaluate()
	if !rep.Ready || !rep.Healthy {
		t.Errorf("published empty run: Ready=%v Healthy=%v %+v", rep.Ready, rep.Healthy, rep.Rules)
	}
}

// TestHealthCheckpointStaleness drives the staleness rule across its
// warn (half the max age) and fail (past the max age) boundaries with
// a pinned clock.
func TestHealthCheckpointStaleness(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	cfg := telemetry.HealthConfig{Engine: stream.Config{CheckpointPath: "engine.ckpt"}} // max age 10m
	h := telemetry.NewHealth(cfg, holder, obs.NewRegistry(), clock)

	holder.PublishRuntime(stream.RuntimeStats{Checkpoints: 1})
	steps := []struct {
		age    time.Duration
		status string
	}{
		{4 * time.Minute, "ok"},
		{5 * time.Minute, "ok"}, // exactly half: warn is strictly greater-than
		{6 * time.Minute, "warn"},
		{10 * time.Minute, "warn"}, // exactly max: fail is strictly greater-than
		{11 * time.Minute, "fail"},
	}
	for _, s := range steps {
		clock.Set(epoch.Add(s.age))
		rep := h.Evaluate()
		r := ruleByName(t, rep, "checkpoint")
		if r.Status != s.status {
			t.Errorf("age %v: status %q, want %q (%s)", s.age, r.Status, s.status, r.Detail)
		}
		if wantHealthy := s.status != "fail"; rep.Healthy != wantHealthy {
			t.Errorf("age %v: Healthy = %v, want %v", s.age, rep.Healthy, wantHealthy)
		}
	}

	// A fresh checkpoint publication recovers the rule.
	holder.PublishRuntime(stream.RuntimeStats{Checkpoints: 2})
	if r := ruleByName(t, h.Evaluate(), "checkpoint"); r.Status != "ok" {
		t.Errorf("after fresh checkpoint: %q (%s)", r.Status, r.Detail)
	}

	// Non-checkpointing runs never trip the rule.
	hOff := telemetry.NewHealth(telemetry.HealthConfig{}, holder, obs.NewRegistry(), clock)
	clock.Set(epoch.Add(48 * time.Hour))
	if r := ruleByName(t, hOff.Evaluate(), "checkpoint"); r.Status != "ok" {
		t.Errorf("checkpointing disabled but rule tripped: %q", r.Status)
	}
}

// TestHealthFoldLagAndBackpressure drives the parser-side rules
// straight through the registry instruments they read.
func TestHealthFoldLagAndBackpressure(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	reg := obs.NewRegistry()
	cfg := telemetry.HealthConfig{Engine: stream.Config{Chunk: weblog.ChunkConfig{Window: 4}}} // the fold-lag bound is the window
	h := telemetry.NewHealth(cfg, holder, reg, clock)

	parsed := reg.Counter("weblog.chunks_parsed")
	folded := reg.Counter("stream.chunks_folded")
	inFlight := reg.Gauge("weblog.chunks_in_flight")

	if r := ruleByName(t, h.Evaluate(), "fold-lag"); r.Status != "ok" {
		t.Errorf("idle fold-lag: %q", r.Status)
	}
	parsed.Add(10)
	folded.Add(6) // lag 4 == bound: ok (strictly greater-than)
	if r := ruleByName(t, h.Evaluate(), "fold-lag"); r.Status != "ok" {
		t.Errorf("lag at bound: %q (%s)", r.Status, r.Detail)
	}
	parsed.Add(1) // lag 5 > 4: warn
	if r := ruleByName(t, h.Evaluate(), "fold-lag"); r.Status != "warn" {
		t.Errorf("lag past bound: %q (%s)", r.Status, r.Detail)
	}
	parsed.Add(4) // lag 9 > 8 = 2*bound: fail
	rep := h.Evaluate()
	if r := ruleByName(t, rep, "fold-lag"); r.Status != "fail" || rep.Healthy {
		t.Errorf("lag past twice the bound: %q Healthy=%v", r.Status, rep.Healthy)
	}

	inFlight.Set(3)
	if r := ruleByName(t, h.Evaluate(), "backpressure"); r.Status != "ok" {
		t.Errorf("window not saturated: %q", r.Status)
	}
	inFlight.Set(4)
	rep = h.Evaluate()
	r := ruleByName(t, rep, "backpressure")
	if r.Status != "warn" {
		t.Errorf("window saturated: %q, want warn", r.Status)
	}
	// Saturation is the operating point under load — warn never fails
	// the process on its own (fold-lag is still failing here, so assert
	// on the rule, not the report).
	if strings.Contains(r.Status, "fail") {
		t.Errorf("backpressure must never fail: %q", r.Status)
	}
}

// TestHealthReadsPipelineLag runs the real chunked reader with a slow
// emit that counts stream.chunks_folded the way the engine does: the
// workers parse ahead until the fold lag reaches the window and never
// pass it, and the backpressure and fold-lag rules read that state.
func TestHealthReadsPipelineLag(t *testing.T) {
	const window = 4
	reg := obs.NewRegistry()
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	h := telemetry.NewHealth(telemetry.HealthConfig{Engine: stream.Config{Chunk: weblog.ChunkConfig{Window: window}}}, holder, reg, clock)
	tight := telemetry.NewHealth(telemetry.HealthConfig{Engine: stream.Config{Chunk: weblog.ChunkConfig{Window: window - 1}}}, holder, reg, clock)
	parsed := reg.Counter("weblog.chunks_parsed")
	folded := reg.Counter("stream.chunks_folded")
	inFlight := reg.Gauge("weblog.chunks_in_flight")

	var log strings.Builder
	for i := 0; i < 40; i++ {
		fmt.Fprintf(&log, "h%d - - [12/Jan/2004:10:%02d:00 -0500] \"GET /a HTTP/1.0\" 200 100\n", i%3, i)
	}
	first := true
	emit := func(weblog.Chunk) error {
		if lag := parsed.Value() - folded.Value(); lag > window || inFlight.Value() > window {
			t.Fatalf("fold lag %d, chunks in flight %d: past the window %d", lag, inFlight.Value(), window)
		}
		if first {
			first = false
			deadline := time.Now().Add(10 * time.Second)
			for parsed.Value()-folded.Value() < window {
				if time.Now().After(deadline) {
					t.Fatalf("fold lag stuck at %d with the fold stalled, want %d", parsed.Value()-folded.Value(), window)
				}
				time.Sleep(time.Millisecond)
			}
			if r := ruleByName(t, h.Evaluate(), "backpressure"); r.Status != "warn" {
				t.Errorf("stalled fold: backpressure %q (%s), want warn", r.Status, r.Detail)
			}
			if r := ruleByName(t, h.Evaluate(), "fold-lag"); r.Status != "ok" {
				t.Errorf("lag at the window: fold-lag %q (%s), want ok", r.Status, r.Detail)
			}
			if r := ruleByName(t, tight.Evaluate(), "fold-lag"); r.Status != "warn" {
				t.Errorf("lag past a tighter bound: fold-lag %q (%s), want warn", r.Status, r.Detail)
			}
		}
		folded.Inc()
		return nil
	}
	ctx := obs.WithMetrics(context.Background(), reg)
	if err := weblog.ReadChunksCtx(ctx, strings.NewReader(log.String()), parallel.NewPool(3), weblog.ChunkConfig{Lines: 2, Window: window}, emit); err != nil {
		t.Fatal(err)
	}
	if parsed.Value() != 20 || folded.Value() != 20 {
		t.Errorf("%d chunks parsed, %d folded, want 20 each", parsed.Value(), folded.Value())
	}
	if inFlight.Value() != 0 || inFlight.Max() != window {
		t.Errorf("chunks in flight %d (max %d) after the scan, want 0 (max %d)", inFlight.Value(), inFlight.Max(), window)
	}
	if r := ruleByName(t, h.Evaluate(), "backpressure"); r.Status != "ok" {
		t.Errorf("drained pipeline: backpressure %q (%s)", r.Status, r.Detail)
	}
}

// TestHealthQuarantineRate differences quarantine bytes across the two
// most recent publications.
func TestHealthQuarantineRate(t *testing.T) {
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	cfg := telemetry.HealthConfig{Engine: stream.Config{Quarantine: io.Discard}}
	h := telemetry.NewHealth(cfg, holder, obs.NewRegistry(), clock)
	const rate = telemetry.MaxQuarantineRate // bytes/second

	holder.PublishRuntime(stream.RuntimeStats{QuarantineBytes: 0})
	if r := ruleByName(t, h.Evaluate(), "quarantine"); r.Status != "ok" || !strings.Contains(r.Detail, "warming up") {
		t.Errorf("single publication: %q (%s)", r.Status, r.Detail)
	}

	cases := []struct {
		name   string
		bytes  int64 // growth over 10 seconds
		status string
	}{
		{"under bound", 5 * rate, "ok"},
		{"at bound", 10 * rate, "ok"}, // strictly greater-than
		{"past bound", 15 * rate, "warn"},
		{"past twice", 25 * rate, "fail"},
	}
	base := int64(0)
	at := epoch
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			at = at.Add(10 * time.Second)
			clock.Set(at)
			base += tc.bytes
			holder.PublishRuntime(stream.RuntimeStats{QuarantineBytes: base})
			rep := h.Evaluate()
			r := ruleByName(t, rep, "quarantine")
			if r.Status != tc.status {
				t.Errorf("status = %q, want %q (%s)", r.Status, tc.status, r.Detail)
			}
			if wantHealthy := tc.status != "fail"; rep.Healthy != wantHealthy {
				t.Errorf("Healthy = %v, want %v", rep.Healthy, wantHealthy)
			}
		})
	}

	// No quarantine sink: rule is disabled.
	hOff := telemetry.NewHealth(telemetry.HealthConfig{}, holder, obs.NewRegistry(), clock)
	if r := ruleByName(t, hOff.Evaluate(), "quarantine"); r.Status != "ok" || !strings.Contains(r.Detail, "no quarantine growth bound") {
		t.Errorf("unbounded quarantine rule: %q (%s)", r.Status, r.Detail)
	}
}

// newTestServer wires a full holder+health+server stack on a pinned
// clock and returns the pieces.
func newTestServer(t *testing.T, cfg telemetry.HealthConfig) (*telemetry.Holder, *setClock, http.Handler) {
	t.Helper()
	clock := newSetClock(epoch)
	holder := telemetry.NewHolder(clock)
	reg := obs.NewRegistry()
	health := telemetry.NewHealth(cfg, holder, reg, clock)
	srv := telemetry.NewServer(reg, holder, health)
	return holder, clock, srv.Handler()
}

func get(h http.Handler, method, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, nil))
	return rec
}

func TestServerEndpoints(t *testing.T) {
	holder, _, handler := newTestServer(t, telemetry.HealthConfig{})

	// Read-only: writes are 405 with an Allow header.
	rec := get(handler, http.MethodPost, "/metrics")
	if rec.Code != http.StatusMethodNotAllowed || rec.Header().Get("Allow") != "GET, HEAD" {
		t.Errorf("POST /metrics: code=%d Allow=%q", rec.Code, rec.Header().Get("Allow"))
	}

	// /metrics is a valid (possibly empty) Prometheus exposition.
	rec = get(handler, http.MethodGet, "/metrics")
	if rec.Code != http.StatusOK {
		t.Errorf("GET /metrics: %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("metrics content type %q", ct)
	}

	// The handler's own hit counter shows up on the next scrape.
	rec = get(handler, http.MethodGet, "/metrics")
	if body := rec.Body.String(); !strings.Contains(body, `fullweb_telemetry_http_requests{path="/metrics"}`) {
		t.Errorf("second scrape missing self-counter:\n%s", body)
	}

	// /snapshot is 503 until the engine publishes one.
	rec = get(handler, http.MethodGet, "/snapshot")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("GET /snapshot before publish: %d", rec.Code)
	}
	holder.PublishSnapshot(&stream.Snapshot{Records: 42, Final: true})
	rec = get(handler, http.MethodGet, "/snapshot")
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /snapshot after publish: %d", rec.Code)
	}
	var snap telemetry.PublishedSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatalf("snapshot body not JSON: %v", err)
	}
	if snap.Seq != 1 || snap.Snapshot.Records != 42 || !snap.Snapshot.Final {
		t.Errorf("snapshot body %+v", snap)
	}

	// /readyz flips at the first runtime publication.
	rec = get(handler, http.MethodGet, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Errorf("GET /readyz before publish: %d", rec.Code)
	}
	holder.PublishRuntime(stream.RuntimeStats{Records: 42})
	rec = get(handler, http.MethodGet, "/readyz")
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"records": 42`) {
		t.Errorf("GET /readyz after publish: %d %s", rec.Code, rec.Body.String())
	}

	// /healthz with no failing rules.
	rec = get(handler, http.MethodGet, "/healthz")
	if rec.Code != http.StatusOK {
		t.Errorf("GET /healthz: %d %s", rec.Code, rec.Body.String())
	}
	var rep telemetry.HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("healthz body not JSON: %v", err)
	}
	if !rep.Healthy || len(rep.Rules) != 5 {
		t.Errorf("healthz report %+v", rep)
	}

	// The index answers exactly "/": anything else is 404 — including
	// the pprof tree, which lives on its own mux (obs.PprofMux).
	if rec = get(handler, http.MethodGet, "/"); rec.Code != http.StatusOK {
		t.Errorf("GET /: %d", rec.Code)
	}
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/heap", "/nope"} {
		if rec = get(handler, http.MethodGet, path); rec.Code != http.StatusNotFound {
			t.Errorf("GET %s: %d, want 404", path, rec.Code)
		}
	}
}

// TestServerHealthz503 wires a failing rule end to end: a breached
// error budget must turn /healthz into a 503.
func TestServerHealthz503(t *testing.T) {
	cfg := telemetry.HealthConfig{Engine: stream.Config{
		Mode:   stream.ModeBudgeted,
		Budget: stream.Budget{MaxRejects: 1},
	}}
	holder, _, handler := newTestServer(t, cfg)
	holder.PublishRuntime(stream.RuntimeStats{
		Records: 100,
		Ingest:  stream.IngestStats{Rejected: 2, Malformed: 2},
	})
	rec := get(handler, http.MethodGet, "/healthz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("GET /healthz with breached budget: %d", rec.Code)
	}
	var rep telemetry.HealthReport
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Healthy {
		t.Error("report claims healthy under a breached budget")
	}
	if r := ruleByName(t, rep, "ingest-budget"); r.Status != "fail" {
		t.Errorf("ingest-budget %q, want fail", r.Status)
	}
}

// TestVerdict covers the comma-list rendering.
func TestVerdict(t *testing.T) {
	cases := []struct {
		st   stream.IngestStats
		want string
	}{
		{stream.IngestStats{}, "ok"},
		{stream.IngestStats{Degraded: true}, "degraded"},
		{stream.IngestStats{Truncated: true}, "truncated"},
		{stream.IngestStats{Degraded: true, Truncated: true}, "degraded,truncated"},
	}
	for _, tc := range cases {
		if got := telemetry.Verdict(tc.st); got != tc.want {
			t.Errorf("Verdict(%+v) = %q, want %q", tc.st, got, tc.want)
		}
	}
}
