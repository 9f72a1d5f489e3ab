package core_test

import (
	"context"
	"math"
	"reflect"
	"sync"
	"testing"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/session"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// These end-to-end tests live in an external test package because they
// exercise the analyzer against the workload generator, and the
// generator itself imports core (for FitProfile).

func newAnalyzer(t testing.TB, cfg core.Config) *core.Analyzer {
	t.Helper()
	a, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeFullModelOnSyntheticTrace(t *testing.T) {
	// End-to-end: NASA-scale trace through the whole pipeline.
	trace, err := workload.Generate(workload.NASAPub2(), workload.Config{Scale: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	store := weblog.NewStore(trace.Records)
	cfg := core.DefaultConfig()
	cfg.Curvature.Replications = 40 // keep the e2e test quick
	a := newAnalyzer(t, cfg)
	model, err := a.AnalyzeCtx(context.Background(), "NASA-Pub2", store)
	if err != nil {
		t.Fatal(err)
	}
	if model.Requests != len(trace.Records) {
		t.Errorf("requests %d, want %d", model.Requests, len(trace.Records))
	}
	if model.Sessions != trace.PlantedSessions {
		t.Errorf("sessions %d, planted %d", model.Sessions, trace.PlantedSessions)
	}
	if model.RequestArrivals == nil || model.SessionArrivals == nil {
		t.Fatal("arrival analyses missing")
	}
	// Request-level LRD: Whittle must exceed 0.5 on the stationary series.
	w, ok := model.RequestArrivals.StationaryHurst.ByMethod(lrd.Whittle)
	if !ok {
		t.Fatal("stationary request Whittle missing")
	}
	if w.H <= 0.5 {
		t.Errorf("request Whittle H = %v, want > 0.5", w.H)
	}
	if len(model.TypicalWindows) != 3 {
		t.Fatalf("typical windows: %d", len(model.TypicalWindows))
	}
	for _, char := range []string{core.CharSessionLength, core.CharRequestsPerSession, core.CharBytesPerSession} {
		table, ok := model.Tails[char]
		if !ok {
			t.Fatalf("missing tail table %s", char)
		}
		week, ok := table.Rows[core.IntervalWeek]
		if !ok {
			t.Fatalf("missing Week row for %s", char)
		}
		if week.Status == core.TailNA {
			t.Errorf("%s Week row is NA on a full-scale trace", char)
		}
		if len(table.Rows) != 4 {
			t.Errorf("%s has %d rows, want 4", char, len(table.Rows))
		}
	}
	// Planted tails recovered on the Week rows.
	weekLen := model.Tails[core.CharSessionLength].Rows[core.IntervalWeek]
	if weekLen.Status != core.TailNA && math.Abs(weekLen.LLCD.Alpha-2.286) > 0.5 {
		t.Errorf("session length week alpha %v, planted 2.286", weekLen.LLCD.Alpha)
	}
	if model.RequestPoisson == nil || model.SessionPoisson == nil {
		t.Fatal("Poisson analyses missing")
	}
}

func TestAnalyzePoissonOnPoissonTrace(t *testing.T) {
	// The Poisson baseline trace must be accepted at the session level
	// for low rates (the paper's CSEE Low/Med finding) — here we check
	// the machinery itself on a genuinely Poisson window.
	trace, err := workload.GeneratePoissonBaseline(workload.CSEE(), workload.Config{Scale: 0.3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	store := weblog.NewStore(trace.Records)
	a := newAnalyzer(t, core.DefaultConfig())
	windows, err := store.SelectTypicalWindows(4 * time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	w := windows[weblog.Med]
	// Session starts are Poisson by construction.
	secs := make([]int64, 0)
	seen := map[string]bool{}
	for _, r := range store.Range(w.Start, w.Start.Add(w.Duration)) {
		if !seen[r.Host] {
			seen[r.Host] = true
			secs = append(secs, r.Time.Unix())
		}
	}
	pa, err := a.AnalyzePoissonCtx(context.Background(), weblog.Med, w, secs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pa.Runs) == 0 {
		t.Fatal("no batteries ran")
	}
	if !pa.Accepted() {
		t.Log("note: Poisson acceptance is probabilistic; inspecting components")
		rejected := 0
		total := 0
		for _, byMode := range pa.Runs {
			for _, r := range byMode {
				total++
				if !r.PoissonAccepted() {
					rejected++
				}
			}
		}
		if rejected > total/2 {
			t.Errorf("%d/%d batteries rejected a true Poisson window", rejected, total)
		}
	}
}

func TestAnalysisComputesEachPartOnce(t *testing.T) {
	// Concurrent readers of one Analysis share each part: every
	// goroutine gets the same cached values, and the sessions that four
	// parts read are built exactly once.
	trace, err := workload.Generate(workload.NASAPub2(), workload.Config{Scale: 0.3, Seed: 5, Days: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Stationarize.MinPeriod = 600
	cfg.Stationarize.MaxPeriod = 43200
	cfg.Curvature.Replications = 25
	cfg.Workers = 2
	x := newAnalyzer(t, cfg).NewAnalysis(weblog.NewStore(trace.Records))
	reg := obs.NewRegistry()
	ctx := obs.WithMetrics(context.Background(), reg)

	type parts struct {
		sessions        []session.Session
		requestArrivals *core.ArrivalAnalysis
		sessionArrivals *core.ArrivalAnalysis
		requestPoisson  map[weblog.WorkloadLevel]*core.PoissonAnalysis
		sessionPoisson  map[weblog.WorkloadLevel]*core.PoissonAnalysis
		tails           []*core.TailTable
	}
	const readers = 4
	got := make([]parts, readers)
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(p *parts) {
			defer wg.Done()
			var err error
			check := func() {
				if err != nil {
					t.Error(err)
				}
			}
			// Tails first, so the readers race to the shared sessions
			// through different parts.
			for _, char := range core.AllCharacteristics() {
				var table *core.TailTable
				table, err = x.Tails(ctx, char)
				check()
				p.tails = append(p.tails, table)
			}
			p.sessionPoisson, err = x.SessionPoisson(ctx)
			check()
			p.requestPoisson, err = x.RequestPoisson(ctx)
			check()
			p.sessionArrivals, err = x.SessionArrivals(ctx)
			check()
			p.requestArrivals, err = x.RequestArrivals(ctx)
			check()
			p.sessions, err = x.Sessions(ctx)
			check()
		}(&got[g])
	}
	wg.Wait()
	first := got[0]
	for g, p := range got[1:] {
		if p.requestArrivals != first.requestArrivals || p.sessionArrivals != first.sessionArrivals {
			t.Errorf("reader %d got its own arrival analyses", g+1)
		}
		if reflect.ValueOf(p.requestPoisson).Pointer() != reflect.ValueOf(first.requestPoisson).Pointer() ||
			reflect.ValueOf(p.sessionPoisson).Pointer() != reflect.ValueOf(first.sessionPoisson).Pointer() {
			t.Errorf("reader %d got its own Poisson maps", g+1)
		}
		for i := range p.tails {
			if p.tails[i] != first.tails[i] {
				t.Errorf("reader %d got its own %s table", g+1, core.AllCharacteristics()[i])
			}
		}
	}
	if built := reg.Counter("session.sessions_built").Value(); built != int64(len(first.sessions)) {
		t.Errorf("session.sessions_built = %d for %d sessions: sessionized more than once", built, len(first.sessions))
	}
	if _, err := x.Tails(ctx, "no-such-characteristic"); err == nil {
		t.Error("unknown characteristic accepted")
	}
}
