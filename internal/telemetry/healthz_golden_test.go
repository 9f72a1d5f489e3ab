package telemetry_test

import (
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
)

var update = flag.Bool("update", false, "rewrite testdata/healthz.golden from the current rules")

// healthSetup is what a command line decides about the health rules:
// the engine settings they watch and which serve-mode rules are on.
type healthSetup struct {
	window      int // -chunk-window; 0 is the default
	mode        stream.Mode
	budget      stream.Budget
	checkpoint  bool // -checkpoint set
	quarantine  bool // -quarantine set
	intake, wal bool // fullweb serve; serve -wal
}

// healthConfig builds the rule config from a setup the way the
// commands do.
func healthConfig(s healthSetup) telemetry.HealthConfig {
	cfg := telemetry.HealthConfig{Engine: stream.Config{Mode: s.mode, Budget: s.budget, Chunk: weblog.ChunkConfig{Window: s.window}}, Intake: s.intake, WAL: s.wal}
	if s.checkpoint {
		cfg.Engine.CheckpointPath = "engine.ckpt"
	}
	if s.quarantine {
		cfg.Engine.Quarantine = io.Discard
	}
	return cfg
}

// runtimePub is one runtime publication, at an offset from epoch.
type runtimePub struct {
	at time.Duration
	st stream.RuntimeStats
}

// healthState is one published state of a run and the moment /healthz
// is read.
type healthState struct {
	name                     string
	setup                    healthSetup
	runtime                  []runtimePub
	parsed, folded, inFlight int64                  // registry instruments
	intake                   *telemetry.IntakeStats // published at epoch
	wal                      *telemetry.WALStats    // published at epoch
	at                       time.Duration          // evaluation time after epoch
}

const mib = 1 << 20

var (
	streamSetup = healthSetup{
		window:     4,
		budget:     stream.Budget{MaxRejects: 100, MaxRejectRate: 0.5, MaxClamped: 100},
		checkpoint: true,
		quarantine: true,
	}
	serveSetup = func() healthSetup { s := streamSetup; s.intake = true; return s }()
	walSetup   = func() healthSetup { s := serveSetup; s.wal = true; return s }()
)

// pubs publishes two runtime views 10 s apart, the first checkpoint
// with the first, with quarantine growing by grow bytes between them.
func pubs(st stream.RuntimeStats, grow int64) []runtimePub {
	st.Checkpoints = 1
	next := st
	next.QuarantineBytes += grow
	return []runtimePub{{0, st}, {10 * time.Second, next}}
}

// sources is a three-source intake view: alpha and beta incomplete and
// last heard from at lastAt, gamma complete; alpha holds buffered
// bytes of a 1000-byte cap.
func sources(buffered int64, lastAt time.Duration, draining bool) *telemetry.IntakeStats {
	at := epoch.Add(lastAt)
	return &telemetry.IntakeStats{
		BufferCap: 1000,
		Active:    2,
		Draining:  draining,
		Sources: []telemetry.IntakeSource{
			{Name: "alpha", Buffered: buffered, LastAt: at},
			{Name: "beta", Buffered: buffered / 2, LastAt: at},
			{Name: "gamma", Complete: true, LastAt: epoch},
		},
	}
}

// healthStates covers each rule before the first publication, at ok,
// warn and fail, and its disabled and draining forms, in stream mode,
// serve with intake and serve with a journal.
func healthStates() []healthState {
	ingest := func(records, rejected, clamped int64, truncated bool) stream.RuntimeStats {
		return stream.RuntimeStats{Records: records, Ingest: stream.IngestStats{
			Rejected: rejected, Malformed: rejected, Clamped: clamped, Truncated: truncated,
		}}
	}
	okRT, warnRT, failRT := ingest(1000, 10, 5, false), ingest(1000, 85, 5, false), ingest(1000, 1200, 200, true)
	okWAL := &telemetry.WALStats{LagBytes: mib, DiskBytes: 500, DiskBudgetBytes: 1000}
	warnWAL := &telemetry.WALStats{LagBytes: 200 * mib, DiskBytes: 900, DiskBudgetBytes: 1000}
	failWAL := &telemetry.WALStats{LagBytes: 300 * mib, DiskBytes: 1000, DiskBudgetBytes: 1000, Shedding: true, ShedReason: "disk budget exhausted"}
	return []healthState{
		{name: "stream unpublished", setup: streamSetup, at: 24 * time.Hour},
		{name: "stream defaults", setup: healthSetup{}, runtime: pubs(okRT, 0), parsed: 3, folded: 3, at: time.Minute},
		{name: "stream ok", setup: streamSetup, runtime: pubs(okRT, 5*mib), parsed: 10, folded: 6, inFlight: 3, at: time.Minute},
		{name: "stream warn", setup: streamSetup, runtime: pubs(warnRT, 15*mib), parsed: 10, folded: 5, inFlight: 4, at: 6 * time.Minute},
		{name: "stream fail", setup: streamSetup, runtime: pubs(failRT, 25*mib), parsed: 20, folded: 11, inFlight: 4, at: 11 * time.Minute},
		{name: "stream budget exactly exhausted", setup: streamSetup, runtime: pubs(ingest(1000, 100, 0, false), 0), at: time.Minute},
		{name: "stream reject-rate budget before any attempt", setup: healthSetup{budget: stream.Budget{MaxRejectRate: 0.5}}, runtime: pubs(ingest(0, 0, 0, false), 0), at: time.Minute},
		{name: "stream lenient", setup: healthSetup{mode: stream.ModeLenient, budget: streamSetup.budget}, runtime: pubs(failRT, 0), at: time.Minute},
		{name: "stream strict", setup: healthSetup{mode: stream.ModeStrict, budget: streamSetup.budget}, runtime: pubs(okRT, 0), at: time.Minute},
		{name: "stream one publication", setup: streamSetup, runtime: pubs(okRT, 0)[:1], at: time.Minute},
		{name: "stream publications not time-separated", setup: streamSetup, runtime: []runtimePub{{0, okRT}, {0, okRT}}, at: time.Minute},
		{name: "serve unpublished", setup: serveSetup, at: 24 * time.Hour},
		{name: "serve ok", setup: serveSetup, runtime: pubs(okRT, 0), intake: sources(500, 10*time.Second, false), at: time.Minute},
		{name: "serve warn", setup: serveSetup, runtime: pubs(okRT, 0), intake: sources(800, 10*time.Second, false), at: 6 * time.Minute},
		{name: "serve fail", setup: serveSetup, runtime: pubs(okRT, 0), intake: sources(1000, 10*time.Second, false), at: 11 * time.Minute},
		{name: "serve draining", setup: serveSetup, runtime: pubs(okRT, 0), intake: sources(500, 0, true), at: 11 * time.Minute},
		{name: "serve no buffer bound", setup: serveSetup, runtime: pubs(okRT, 0), intake: func() *telemetry.IntakeStats {
			st := sources(0, 0, false)
			st.BufferCap = 0
			return st
		}(), at: time.Minute},
		{name: "wal unpublished", setup: walSetup, at: 24 * time.Hour},
		{name: "wal ok", setup: walSetup, runtime: pubs(okRT, 0), intake: sources(0, 10*time.Second, false), wal: okWAL, at: time.Minute},
		{name: "wal warn", setup: walSetup, runtime: pubs(okRT, 0), intake: sources(0, 10*time.Second, false), wal: warnWAL, at: time.Minute},
		{name: "wal fail", setup: walSetup, runtime: pubs(okRT, 0), intake: sources(0, 10*time.Second, false), wal: failWAL, at: time.Minute},
		{name: "wal no disk budget", setup: walSetup, runtime: pubs(okRT, 0), intake: sources(0, 10*time.Second, false), wal: &telemetry.WALStats{DiskBytes: 4096}, at: time.Minute},
	}
}

// TestHealthzGolden pins the whole /healthz answer, status code and
// indented JSON body, for every state in healthStates against
// testdata/healthz.golden. -update rewrites the file.
func TestHealthzGolden(t *testing.T) {
	var got strings.Builder
	for _, st := range healthStates() {
		clock := newSetClock(epoch)
		holder := telemetry.NewHolder(clock)
		reg := obs.NewRegistry()
		for _, p := range st.runtime {
			clock.Set(epoch.Add(p.at))
			holder.PublishRuntime(p.st)
		}
		clock.Set(epoch)
		if st.intake != nil {
			holder.PublishIntake(*st.intake)
		}
		if st.wal != nil {
			holder.PublishWAL(*st.wal)
		}
		reg.Counter("weblog.chunks_parsed").Add(st.parsed)
		reg.Counter("stream.chunks_folded").Add(st.folded)
		reg.Gauge("weblog.chunks_in_flight").Set(st.inFlight)
		clock.Set(epoch.Add(st.at))

		srv := telemetry.NewServer(reg, holder, telemetry.NewHealth(healthConfig(st.setup), holder, reg, clock))
		rec := get(srv.Handler(), http.MethodGet, "/healthz")
		fmt.Fprintf(&got, "=== %s: %d\n%s\n", st.name, rec.Code, rec.Body.String())
	}

	path := filepath.Join("testdata", "healthz.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got.String() != string(want) {
		t.Errorf("/healthz differs from %s:\n%s", path, got.String())
	}
}
