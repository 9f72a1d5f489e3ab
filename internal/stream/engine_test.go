package stream_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/session"
	"fullweb/internal/stats"
	"fullweb/internal/stream"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// fixtureBytes loads the committed deterministic trace
// (fullweb generate -profile NASA-Pub2 -scale 0.3 -seed 42 -days 2).
func fixtureBytes(t testing.TB) []byte {
	t.Helper()
	b, err := os.ReadFile("testdata/fixture.log")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// runEngine streams text through a fresh engine, returning the final
// snapshot and every rendered block (periodic snapshots + final).
func runEngine(t testing.TB, cfg stream.Config, text []byte) (*stream.Snapshot, string) {
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
	return final, out.String()
}

// requireBatchEquivalence is the PR's equivalence gate on one trace:
// exact totals against the batch pipeline, and streaming Hurst + Hill
// within the tolerances documented in DESIGN.md §10. The Hill check is
// exact here because the reservoir capacity exceeds the session count.
func requireBatchEquivalence(t *testing.T, text []byte) {
	t.Helper()
	recs, parseErrs, err := weblog.ReadAll(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	store := weblog.NewStore(recs)
	sessions, err := session.Sessionize(recs, session.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}

	cfg := stream.DefaultConfig()
	final, _ := runEngine(t, cfg, text)

	// Exact totals: the streaming engine must not drift from batch by a
	// single record, session or byte.
	if final.Records != int64(store.Len()) {
		t.Errorf("records %d, batch %d", final.Records, store.Len())
	}
	if final.ParseErrors != int64(len(parseErrs)) {
		t.Errorf("parse errors %d, batch %d", final.ParseErrors, len(parseErrs))
	}
	if final.Bytes != store.TotalBytes() {
		t.Errorf("bytes %d, batch %d", final.Bytes, store.TotalBytes())
	}
	if final.SessionsClosed != int64(len(sessions)) {
		t.Errorf("sessions closed %d, batch %d", final.SessionsClosed, len(sessions))
	}
	if final.SessionsActive != 0 {
		t.Errorf("final snapshot left %d sessions active", final.SessionsActive)
	}
	if final.SessionsOpened != int64(len(sessions)) {
		t.Errorf("sessions opened %d, batch %d", final.SessionsOpened, len(sessions))
	}
	first, last, err := store.Span()
	if err != nil {
		t.Fatal(err)
	}
	if final.Span != last.Sub(first) {
		t.Errorf("span %v, batch %v", final.Span, last.Sub(first))
	}
	if !final.Final {
		t.Error("final snapshot not marked Final")
	}

	// Streaming Hurst within |ΔH| <= 0.1 of the batch aggregated-variance
	// estimate (DESIGN.md §10: dyadic versus log-spaced grids).
	counts, err := store.CountsPerSecond()
	if err != nil {
		t.Fatal(err)
	}
	batchReq, err := lrd.EstimateAggregatedVariance(counts)
	if err != nil {
		t.Fatal(err)
	}
	if !final.RequestArrivals.OK {
		t.Fatal("request-arrival estimate not ready on full trace")
	}
	if d := math.Abs(final.RequestArrivals.H - batchReq.H); d > 0.1 {
		t.Errorf("request H: streaming %v vs batch %v (|Δ| = %v > 0.1)", final.RequestArrivals.H, batchReq.H, d)
	}
	if final.RequestArrivals.Seconds != int64(len(counts)) {
		t.Errorf("request seconds %d, batch series length %d", final.RequestArrivals.Seconds, len(counts))
	}
	sessCounts, err := session.InitiatedPerSecond(sessions)
	if err != nil {
		t.Fatal(err)
	}
	batchSess, err := lrd.EstimateAggregatedVariance(sessCounts)
	if err != nil {
		t.Fatal(err)
	}
	if !final.SessionArrivals.OK {
		t.Fatal("session-arrival estimate not ready on full trace")
	}
	if d := math.Abs(final.SessionArrivals.H - batchSess.H); d > 0.1 {
		t.Errorf("session H: streaming %v vs batch %v (|Δ| = %v > 0.1)", final.SessionArrivals.H, batchSess.H, d)
	}
	if final.SessionArrivals.Seconds != int64(len(sessCounts)) {
		t.Errorf("session seconds %d, batch series length %d", final.SessionArrivals.Seconds, len(sessCounts))
	}

	// Per-characteristic estimators against batch values in the shared
	// core order; Hill exactly (reservoir holds every session).
	if len(final.Chars) != len(core.AllCharacteristics()) {
		t.Fatalf("%d characteristic snapshots", len(final.Chars))
	}
	for i, name := range core.AllCharacteristics() {
		cs := final.Chars[i]
		if cs.Name != name {
			t.Fatalf("characteristic %d is %q, want %q", i, cs.Name, name)
		}
		values := core.CharacteristicValues(name, sessions)
		if cs.N != int64(len(values)) {
			t.Errorf("%s: N %d, batch %d", name, cs.N, len(values))
		}
		var sum float64
		for _, v := range values {
			sum += v
		}
		mean := sum / float64(len(values))
		if math.Abs(cs.Mean-mean) > 1e-6*math.Max(1, math.Abs(mean)) {
			t.Errorf("%s: mean %v, batch %v", name, cs.Mean, mean)
		}
		positive := session.PositiveOnly(values)
		if cs.HillSeen != int64(len(positive)) {
			t.Errorf("%s: hill saw %d positives, batch %d", name, cs.HillSeen, len(positive))
		}
		if int64(cs.HillSample) != cs.HillSeen {
			t.Errorf("%s: reservoir truncated (%d of %d) despite capacity", name, cs.HillSample, cs.HillSeen)
		}
		batchHill, err := heavytail.EstimateHill(positive, heavytail.DefaultHillTailFraction, heavytail.DefaultHillRelTol)
		if err != nil {
			if cs.HillOK {
				t.Errorf("%s: streaming Hill ran, batch failed: %v", name, err)
			}
			continue
		}
		if !cs.HillOK {
			t.Errorf("%s: batch Hill ran, streaming did not", name)
			continue
		}
		if cs.HillStable != batchHill.Stable || cs.HillAlpha != batchHill.Alpha {
			t.Errorf("%s: streaming Hill (stable=%v alpha=%v) != batch (stable=%v alpha=%v)",
				name, cs.HillStable, cs.HillAlpha, batchHill.Stable, batchHill.Alpha)
		}
	}
}

func TestEngineMatchesBatchOnFixture(t *testing.T) {
	requireBatchEquivalence(t, fixtureBytes(t))
}

func TestEngineMatchesBatchOnSyntheticTrace(t *testing.T) {
	trace, err := workload.Generate(workload.NASAPub2(), workload.Config{Scale: 0.2, Seed: 99, Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := weblog.WriteAll(&buf, trace.Records); err != nil {
		t.Fatal(err)
	}
	requireBatchEquivalence(t, buf.Bytes())
}

// TestEngineDeterministicAcrossConfigs: worker count and chunk geometry
// change scheduling, never output — every rendered snapshot must be
// byte-identical.
func TestEngineDeterministicAcrossConfigs(t *testing.T) {
	text := fixtureBytes(t)
	base := stream.DefaultConfig()
	base.SnapshotEvery = 6 * time.Hour
	_, want := runEngine(t, base, text)
	if strings.Count(want, "-- snapshot @") < 2 {
		t.Fatalf("expected several periodic snapshots on the 48h fixture:\n%s", want)
	}
	for _, mod := range []func(*stream.Config){
		func(c *stream.Config) { c.Workers = 1 },
		func(c *stream.Config) { c.Workers = 8 },
		func(c *stream.Config) { c.Chunk = weblog.ChunkConfig{Lines: 17, Window: 3} },
		func(c *stream.Config) { c.Workers = 5; c.Chunk = weblog.ChunkConfig{Lines: 101, Window: 2} },
	} {
		cfg := base
		mod(&cfg)
		_, got := runEngine(t, cfg, text)
		if got != want {
			t.Fatalf("snapshot stream differs under config %+v", cfg)
		}
	}
}

// TestEngineGzipInput: the gzip-compressed fixture must produce the
// byte-identical snapshot stream.
func TestEngineGzipInput(t *testing.T) {
	text := fixtureBytes(t)
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	if _, err := zw.Write(text); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	_, want := runEngine(t, stream.DefaultConfig(), text)
	_, got := runEngine(t, stream.DefaultConfig(), gz.Bytes())
	if got != want {
		t.Fatal("gzip input produced different snapshots than plain text")
	}
}

// TestEngineSnapshotCadence: boundaries are trace-time multiples of the
// interval from the first record, strictly increasing, each describing
// only the records before it.
func TestEngineSnapshotCadence(t *testing.T) {
	text := fixtureBytes(t)
	recs, _, err := weblog.ReadAll(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	first := recs[0].Time
	eng, err := stream.NewEngine(stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*stream.Snapshot
	final, err := eng.ProcessCtx(context.Background(), bytes.NewReader(text), func(s *stream.Snapshot) error {
		snaps = append(snaps, s)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(snaps) == 0 {
		t.Fatal("no periodic snapshots on a 48h trace at 6h cadence")
	}
	prevAt := first
	var prevRecords int64
	for i, s := range snaps {
		if s.Final {
			t.Errorf("periodic snapshot %d marked final", i)
		}
		if !s.At.After(prevAt) {
			t.Errorf("snapshot %d at %v not after %v", i, s.At, prevAt)
		}
		if rem := s.At.Sub(first) % (6 * time.Hour); rem != 0 {
			t.Errorf("snapshot %d at %v misaligned by %v", i, s.At, rem)
		}
		if s.Records < prevRecords {
			t.Errorf("snapshot %d records went backwards: %d < %d", i, s.Records, prevRecords)
		}
		if s.Records >= final.Records {
			t.Errorf("snapshot %d already holds all %d records", i, final.Records)
		}
		prevAt, prevRecords = s.At, s.Records
	}
	// Disabling the cadence yields the final snapshot only.
	cfg := stream.DefaultConfig()
	cfg.SnapshotEvery = 0
	eng2, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	if _, err := eng2.ProcessCtx(context.Background(), bytes.NewReader(text), func(*stream.Snapshot) error {
		calls++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if calls != 0 {
		t.Errorf("SnapshotEvery=0 emitted %d periodic snapshots", calls)
	}
}

// TestEngineBoundedMemory is the bounded-memory regression: quadrupling
// the trace length must not grow the live session state — the peak
// tracks the diurnal concurrency ceiling, not the trace length — and
// the reservoirs stay at capacity.
func TestEngineBoundedMemory(t *testing.T) {
	render := func(days int) []byte {
		trace, err := workload.Generate(workload.NASAPub2(), workload.Config{Scale: 0.15, Seed: 21, Days: days})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := weblog.WriteAll(&buf, trace.Records); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cfg := stream.DefaultConfig()
	cfg.SnapshotEvery = 0
	cfg.ReservoirCap = 64

	run := func(text []byte) (*stream.Engine, *stream.Snapshot) {
		eng, err := stream.NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		final, err := eng.ProcessCtx(context.Background(), bytes.NewReader(text), nil)
		if err != nil {
			t.Fatal(err)
		}
		return eng, final
	}
	engShort, finalShort := run(render(2))
	engLong, finalLong := run(render(8))

	if finalLong.SessionsClosed < 3*finalShort.SessionsClosed {
		t.Fatalf("long trace not materially longer: %d vs %d sessions", finalLong.SessionsClosed, finalShort.SessionsClosed)
	}
	peakShort, peakLong := engShort.PeakActiveSessions(), engLong.PeakActiveSessions()
	if peakShort == 0 || peakLong == 0 {
		t.Fatal("no live sessions observed")
	}
	if float64(peakLong) > 2.5*float64(peakShort) {
		t.Errorf("live state grew with trace length: peak %d (8 days) vs %d (2 days)", peakLong, peakShort)
	}
	if int64(peakLong)*4 > finalLong.SessionsClosed {
		t.Errorf("peak live sessions %d not small against %d total sessions", peakLong, finalLong.SessionsClosed)
	}
	for _, cs := range finalLong.Chars {
		if cs.HillSample > cfg.ReservoirCap {
			t.Errorf("%s: reservoir overflowed capacity: %d > %d", cs.Name, cs.HillSample, cfg.ReservoirCap)
		}
		if cs.HillSeen > int64(cfg.ReservoirCap) && cs.HillSample != cfg.ReservoirCap {
			t.Errorf("%s: reservoir below capacity (%d) after %d observations", cs.Name, cs.HillSample, cs.HillSeen)
		}
	}
}

// TestEngineQuantilesExactUnderCapacity: on a trace whose session
// count sits inside the sketch capacity, the final snapshot's
// quantiles equal the batch stats.Quantile values bit for bit.
func TestEngineQuantilesExactUnderCapacity(t *testing.T) {
	text := fixtureBytes(t)
	recs, _, err := weblog.ReadAll(bytes.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := session.Sessionize(recs, session.DefaultThreshold)
	if err != nil {
		t.Fatal(err)
	}
	cfg := stream.DefaultConfig()
	final, _ := runEngine(t, cfg, text)
	for i, name := range core.AllCharacteristics() {
		values := core.CharacteristicValues(name, sessions)
		if len(values) >= cfg.QuantileCap {
			t.Fatalf("fixture outgrew the sketch capacity; shrink the trace or raise the cap")
		}
		cs := final.Chars[i]
		for _, q := range []struct {
			p    float64
			got  float64
			what string
		}{{0.50, cs.P50, "p50"}, {0.90, cs.P90, "p90"}, {0.99, cs.P99, "p99"}} {
			want, err := stats.Quantile(values, q.p)
			if err != nil {
				t.Fatal(err)
			}
			if q.got != want {
				t.Errorf("%s %s: streaming %v, batch %v", name, q.what, q.got, want)
			}
		}
	}
}

func TestEngineParseErrorsCounted(t *testing.T) {
	text := []byte("garbage line\n" + string(fixtureBytes(t)) + "more garbage\n")
	final, _ := runEngine(t, stream.DefaultConfig(), text)
	if final.ParseErrors != 2 {
		t.Errorf("parse errors %d, want 2", final.ParseErrors)
	}
}

// TestShardedConfigValidation pins the quantile-sketch capacity checks.
// The name predates the single-engine layout; the shard-count cases
// went with Config.Shards, and the capacity cases remain.
func TestShardedConfigValidation(t *testing.T) {
	cfg := stream.DefaultConfig()
	cfg.QuantileCap = 17
	if _, err := stream.NewEngine(cfg); !errors.Is(err, stream.ErrBadConfig) {
		t.Errorf("odd quantile capacity accepted: %v", err)
	}
	cfg = stream.DefaultConfig()
	cfg.QuantileCap = 4
	if _, err := stream.NewEngine(cfg); !errors.Is(err, stream.ErrBadConfig) {
		t.Errorf("quantile capacity below MinQuantileCap accepted: %v", err)
	}
}

func TestEngineErrors(t *testing.T) {
	bad := []func(*stream.Config){
		func(c *stream.Config) { c.Threshold = 0 },
		func(c *stream.Config) { c.SnapshotEvery = -time.Second },
		func(c *stream.Config) { c.ReservoirCap = 8 },
		func(c *stream.Config) { c.Workers = -1 },
	}
	for i, mod := range bad {
		cfg := stream.DefaultConfig()
		mod(&cfg)
		if _, err := stream.NewEngine(cfg); !errors.Is(err, stream.ErrBadConfig) {
			t.Errorf("bad config %d accepted: %v", i, err)
		}
	}
	eng, err := stream.NewEngine(stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.ProcessCtx(context.Background(), strings.NewReader(""), nil); !errors.Is(err, stream.ErrNoRecords) {
		t.Errorf("empty input: %v", err)
	}
	eng2, err := stream.NewEngine(stream.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := eng2.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled context: %v", err)
	}
}

// TestEngineFinalSnapshotIndependentOfCadence: periodic read-offs must
// not perturb the estimators they read, so the final snapshot is
// byte-identical whether the engine snapshots never, hourly or every
// six hours. Small sketch capacities put the quantile sketches through
// promotions and the Hill reservoirs through sampling between reads.
func TestEngineFinalSnapshotIndependentOfCadence(t *testing.T) {
	text := fixtureBytes(t)
	var want string
	for i, every := range []time.Duration{0, time.Hour, 6 * time.Hour} {
		cfg := stream.DefaultConfig()
		cfg.SnapshotEvery = every
		cfg.QuantileCap = stream.MinQuantileCap
		cfg.ReservoirCap = 64
		final, out := runEngine(t, cfg, text)
		if every == time.Hour && strings.Count(out, "-- snapshot @") < 24 {
			t.Fatalf("hourly cadence emitted too few snapshots on the 48h fixture:\n%s", out)
		}
		var got bytes.Buffer
		if err := final.Render(&got); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			want = got.String()
			continue
		}
		if got.String() != want {
			t.Fatalf("final snapshot at cadence %v differs from the cadence-free run:\n--- want ---\n%s--- got ---\n%s", every, want, got.String())
		}
	}
}
