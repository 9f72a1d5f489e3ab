package repro

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"fullweb/internal/core"
	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/session"
	"fullweb/internal/stats"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

// ErrUnknownServer is returned for a server name outside the paper's
// four.
var ErrUnknownServer = errors.New("repro: unknown server")

// Harness regenerates the paper's experiments from synthetic traces.
// Each server's trace is generated once, under a singleflight latch, and
// handed to a core.Analysis — the same per-log pipeline `fullweb
// analyze` runs — which computes and caches each part of the FULL-Web
// model the first time an experiment reads it. Experiments sharing a
// server therefore reuse the work, and concurrent experiments wait for —
// rather than duplicate or race — it. A Harness is safe for concurrent
// use; the multi-server experiments fan out on a bounded worker pool.
// All randomness derives from Seed per server and per battery, so
// results are identical at any Workers setting.
type Harness struct {
	// Scale multiplies the paper's Table 1 volumes (DESIGN.md documents
	// the default 0.1 substitution); Seed fixes all randomness.
	Scale float64
	Seed  int64
	// Days shortens the horizon from the paper's one week; 0 means 7.
	// Mainly for fast test runs — the published comparisons use 7.
	Days int
	// AnalyzerConfig tunes the pipeline; zero value means
	// core.DefaultConfig.
	AnalyzerConfig *core.Config
	// Workers bounds the experiment fan-out (and, through the analyzer
	// config, the estimator fan-out): 0 means runtime.NumCPU(), 1 forces
	// near-sequential execution. Set before the first experiment runs.
	Workers int
	// Tracer and Metrics observe the experiments: every public experiment
	// opens a root span ("repro.table1", ...) and each per-server lookup
	// reports whether it generated the trace or reused it. Both default
	// to nil — the free no-op path — and never influence computed
	// results. Set before the first experiment runs.
	Tracer  *obs.Tracer
	Metrics *obs.Registry

	mu      sync.Mutex
	servers map[string]*serverData

	analyzerOnce sync.Once
	analyzerVal  *core.Analyzer
	analyzerErr  error
}

// serverData holds one server's lazily generated trace and the analysis
// over it. The first goroutine to need it generates it (the error is
// latched alongside); later goroutines reuse it.
type serverData struct {
	genOnce  sync.Once
	genErr   error
	store    *weblog.Store
	analysis *core.Analysis
}

// NewHarness returns a harness at the given scale and seed.
func NewHarness(scale float64, seed int64) *Harness {
	return &Harness{Scale: scale, Seed: seed, servers: make(map[string]*serverData)}
}

// analyzer returns the harness's shared analyzer, built once from
// AnalyzerConfig with the Workers and Metrics overrides applied.
func (h *Harness) analyzer() (*core.Analyzer, error) {
	h.analyzerOnce.Do(func() {
		cfg := core.DefaultConfig()
		if h.AnalyzerConfig != nil {
			cfg = *h.AnalyzerConfig
		}
		if cfg.Workers == 0 {
			cfg.Workers = h.Workers
		}
		if cfg.Metrics == nil {
			cfg.Metrics = h.Metrics
		}
		h.analyzerVal, h.analyzerErr = core.NewAnalyzer(cfg)
	})
	return h.analyzerVal, h.analyzerErr
}

// obsCtx opens the root span of one experiment under the harness's
// tracer and registry. With both nil — the default — the returned
// context is plain and the span inert, at zero cost.
func (h *Harness) obsCtx(experiment string) (context.Context, obs.Span) {
	ctx := obs.WithTracer(obs.WithMetrics(context.Background(), h.Metrics), h.Tracer)
	return obs.StartSpan(ctx, "repro."+experiment)
}

// cached reports a server lookup to the harness metrics: ran means this
// call generated the trace (harness.recomputes), otherwise it reused the
// server's trace and analysis (harness.cache_hits).
func (h *Harness) cached(ran bool) {
	if ran {
		h.Metrics.Counter("harness.recomputes").Inc()
	} else {
		h.Metrics.Counter("harness.cache_hits").Inc()
	}
}

// pool returns the worker pool the multi-server experiments fan out on —
// the analyzer's own pool, so estimator-level and experiment-level
// parallelism share one bound.
func (h *Harness) pool() *parallel.Pool {
	if a, err := h.analyzer(); err == nil {
		return a.Pool()
	}
	return parallel.NewPool(1)
}

func (h *Harness) profileFor(server string) (workload.Profile, error) {
	for _, p := range workload.AllProfiles() {
		if p.Name == server {
			return p, nil
		}
	}
	return workload.Profile{}, fmt.Errorf("%w: %q", ErrUnknownServer, server)
}

// slot returns the (possibly empty) serverData for a name, creating it
// under the harness lock. The artifacts themselves are computed outside
// the lock, so generating one server never blocks queries for another.
func (h *Harness) slot(name string) *serverData {
	h.mu.Lock()
	defer h.mu.Unlock()
	sd, ok := h.servers[name]
	if !ok {
		sd = &serverData{}
		h.servers[name] = sd
	}
	return sd
}

// server lazily generates and caches the trace of one server, with the
// (still empty) analysis over it.
func (h *Harness) server(ctx context.Context, name string) (*serverData, error) {
	sd := h.slot(name)
	ran := false
	sd.genOnce.Do(func() {
		ran = true
		_, sp := obs.StartSpan(ctx, "repro.generate")
		sp.SetAttr("server", name)
		defer sp.End()
		a, err := h.analyzer()
		if err != nil {
			sd.genErr = err
			return
		}
		profile, err := h.profileFor(name)
		if err != nil {
			sd.genErr = err
			return
		}
		trace, err := workload.Generate(profile, workload.Config{Scale: h.Scale, Seed: h.Seed, Days: h.Days})
		if err != nil {
			sd.genErr = fmt.Errorf("repro: generating %s: %w", name, err)
			return
		}
		sp.SetInt("records", int64(len(trace.Records)))
		sd.store = weblog.NewStore(trace.Records)
		sd.analysis = a.NewAnalysis(sd.store)
	})
	h.cached(ran)
	if sd.genErr != nil {
		return nil, sd.genErr
	}
	return sd, nil
}

// analysis returns one server's analysis, generating its trace first if
// needed.
func (h *Harness) analysis(ctx context.Context, name string) (*core.Analysis, error) {
	sd, err := h.server(ctx, name)
	if err != nil {
		return nil, err
	}
	return sd.analysis, nil
}

// perServer reads one part of every server's analysis, one server per
// pool task; a failing server cancels the servers not yet started.
func perServer[T any](ctx context.Context, h *Harness, part func(*core.Analysis, context.Context) (T, error)) (map[string]T, error) {
	servers := Servers()
	vals, err := parallel.Map(ctx, h.pool(), len(servers), func(ctx context.Context, i int) (T, error) {
		x, err := h.analysis(ctx, servers[i])
		if err != nil {
			var zero T
			return zero, err
		}
		return part(x, ctx)
	})
	if err != nil {
		return nil, err
	}
	out := make(map[string]T, len(servers))
	for i, name := range servers {
		out[name] = vals[i]
	}
	return out, nil
}

// Table1Row is one measured row of Table 1.
type Table1Row struct {
	Server   string
	Requests int
	Sessions int
	MB       float64
}

// Table1 regenerates Table 1: the one-week volumes of the four synthetic
// traces (scaled by h.Scale). The four trace generations fan out on the
// worker pool; rows come back in Servers() order regardless.
func (h *Harness) Table1() ([]Table1Row, error) {
	ctx, sp := h.obsCtx("table1")
	defer sp.End()
	servers := Servers()
	return parallel.Map(ctx, h.pool(), len(servers), func(ctx context.Context, i int) (Table1Row, error) {
		sd, err := h.server(ctx, servers[i])
		if err != nil {
			return Table1Row{}, err
		}
		sessions, err := sd.analysis.Sessions(ctx)
		if err != nil {
			return Table1Row{}, err
		}
		return Table1Row{
			Server:   servers[i],
			Requests: sd.store.Len(),
			Sessions: len(sessions),
			MB:       float64(sd.store.TotalBytes()) / 1e6,
		}, nil
	})
}

// Figure2 returns the WVU requests-per-second series (the time-series
// plot of Figure 2).
func (h *Harness) Figure2() ([]float64, error) {
	ctx, sp := h.obsCtx("figure2")
	defer sp.End()
	sd, err := h.server(ctx, "WVU")
	if err != nil {
		return nil, err
	}
	counts, err := sd.store.CountsPerSecond()
	if err != nil {
		return nil, fmt.Errorf("repro: figure 2: %w", err)
	}
	return counts, nil
}

// Figure3 returns the raw ACF of the WVU request series (Figure 3).
func (h *Harness) Figure3() ([]float64, error) {
	ctx, sp := h.obsCtx("figure3")
	defer sp.End()
	ra, err := h.wvuRequestArrivals(ctx)
	if err != nil {
		return nil, err
	}
	return ra.ACFRaw, nil
}

// Figure5 returns the ACF after trend and periodicity removal (Figure 5).
func (h *Harness) Figure5() ([]float64, error) {
	ctx, sp := h.obsCtx("figure5")
	defer sp.End()
	ra, err := h.wvuRequestArrivals(ctx)
	if err != nil {
		return nil, err
	}
	return ra.ACFStationary, nil
}

// wvuRequestArrivals returns the request arrival analysis of WVU, the
// server of the single-server arrival figures.
func (h *Harness) wvuRequestArrivals(ctx context.Context) (*core.ArrivalAnalysis, error) {
	x, err := h.analysis(ctx, "WVU")
	if err != nil {
		return nil, err
	}
	return x.RequestArrivals(ctx)
}

// HurstMatrix maps server name to the five-estimator battery.
type HurstMatrix map[string]*lrd.BatteryResult

// Figure4 regenerates Figure 4: Hurst estimates on the raw request
// series of all four servers.
func (h *Harness) Figure4() (HurstMatrix, error) {
	ctx, sp := h.obsCtx("figure4")
	defer sp.End()
	return h.hurstMatrix(ctx, (*core.Analysis).RequestArrivals, true)
}

// Figure6 regenerates Figure 6: Hurst estimates on the stationary
// request series.
func (h *Harness) Figure6() (HurstMatrix, error) {
	ctx, sp := h.obsCtx("figure6")
	defer sp.End()
	return h.hurstMatrix(ctx, (*core.Analysis).RequestArrivals, false)
}

// Figure9 regenerates Figure 9: Hurst estimates on the raw
// sessions-initiated series.
func (h *Harness) Figure9() (HurstMatrix, error) {
	ctx, sp := h.obsCtx("figure9")
	defer sp.End()
	return h.hurstMatrix(ctx, (*core.Analysis).SessionArrivals, true)
}

// Figure10 regenerates Figure 10: Hurst estimates on the stationary
// sessions-initiated series.
func (h *Harness) Figure10() (HurstMatrix, error) {
	ctx, sp := h.obsCtx("figure10")
	defer sp.End()
	return h.hurstMatrix(ctx, (*core.Analysis).SessionArrivals, false)
}

// hurstMatrix runs one arrival analysis per server concurrently and
// keeps its raw or stationary battery.
func (h *Harness) hurstMatrix(ctx context.Context, arrivals func(*core.Analysis, context.Context) (*core.ArrivalAnalysis, error), raw bool) (HurstMatrix, error) {
	return perServer(ctx, h, func(x *core.Analysis, ctx context.Context) (*lrd.BatteryResult, error) {
		aa, err := arrivals(x, ctx)
		if err != nil {
			return nil, err
		}
		if raw {
			return aa.RawHurst, nil
		}
		return aa.StationaryHurst, nil
	})
}

// Figure7 returns the Whittle aggregation sweep of the stationary WVU
// request series (Figure 7).
func (h *Harness) Figure7() ([]lrd.SweepPoint, error) {
	ctx, sp := h.obsCtx("figure7")
	defer sp.End()
	ra, err := h.wvuRequestArrivals(ctx)
	if err != nil {
		return nil, err
	}
	return ra.WhittleSweep, nil
}

// Figure8 returns the Abry-Veitch aggregation sweep (Figure 8).
func (h *Harness) Figure8() ([]lrd.SweepPoint, error) {
	ctx, sp := h.obsCtx("figure8")
	defer sp.End()
	ra, err := h.wvuRequestArrivals(ctx)
	if err != nil {
		return nil, err
	}
	return ra.AbryVeitchSweep, nil
}

// PoissonVerdicts maps server -> workload level -> the battery analysis.
type PoissonVerdicts map[string]map[weblog.WorkloadLevel]*core.PoissonAnalysis

// Section42 regenerates the Section 4.2 experiment: the Poisson battery
// on request arrivals in the Low, Med and High windows of each server.
// The paper's finding: rejected everywhere.
func (h *Harness) Section42() (PoissonVerdicts, error) {
	ctx, sp := h.obsCtx("section42")
	defer sp.End()
	return perServer(ctx, h, (*core.Analysis).RequestPoisson)
}

// Section512 regenerates the Section 5.1.2 experiment: the Poisson
// battery on session initiations. The paper's finding: accepted only for
// the low-workload intervals (fewer than ~1000 sessions per four hours).
func (h *Harness) Section512() (PoissonVerdicts, error) {
	ctx, sp := h.obsCtx("section512")
	defer sp.End()
	return perServer(ctx, h, (*core.Analysis).SessionPoisson)
}

// Figure11Result bundles the LLCD analysis of the WVU High-interval
// session lengths with the plot points.
type Figure11Result struct {
	Sessions int
	LLCD     heavytail.LLCDResult
	Points   []stats.LLCDPoint
}

// Figure11 regenerates Figure 11: the LLCD plot and tail fit of WVU
// session length in the High four-hour interval.
func (h *Harness) Figure11() (*Figure11Result, error) {
	ctx, sp := h.obsCtx("figure11")
	defer sp.End()
	durations, err := h.wvuHighDurations(ctx)
	if err != nil {
		return nil, err
	}
	llcd, err := heavytail.EstimateLLCDAuto(durations)
	if err != nil {
		return nil, fmt.Errorf("repro: figure 11 fit: %w", err)
	}
	e, err := stats.NewECDF(durations)
	if err != nil {
		return nil, fmt.Errorf("repro: figure 11 ecdf: %w", err)
	}
	return &Figure11Result{
		Sessions: len(durations),
		LLCD:     llcd,
		Points:   e.LLCD(),
	}, nil
}

// Figure12 regenerates Figure 12: the Hill plot of the same data,
// restricted to the upper 14% tail.
func (h *Harness) Figure12() (heavytail.HillResult, error) {
	ctx, sp := h.obsCtx("figure12")
	defer sp.End()
	durations, err := h.wvuHighDurations(ctx)
	if err != nil {
		return heavytail.HillResult{}, err
	}
	res, err := heavytail.EstimateHill(durations, heavytail.DefaultHillTailFraction, heavytail.DefaultHillRelTol)
	if err != nil {
		return heavytail.HillResult{}, fmt.Errorf("repro: figure 12: %w", err)
	}
	return res, nil
}

// wvuHighDurations returns the positive session lengths, in seconds, of
// the WVU sessions initiated in the High window.
func (h *Harness) wvuHighDurations(ctx context.Context) ([]float64, error) {
	x, err := h.analysis(ctx, "WVU")
	if err != nil {
		return nil, err
	}
	sessions, err := x.WindowSessions(ctx, weblog.High)
	if err != nil {
		return nil, err
	}
	durations := session.PositiveOnly(core.CharacteristicValues(core.CharSessionLength, sessions))
	if len(durations) == 0 {
		return nil, fmt.Errorf("repro: no WVU High sessions")
	}
	return durations, nil
}

// Figure13 regenerates Figure 13: the LLCD plot of ClarkNet session
// length in number of requests over the whole week.
func (h *Harness) Figure13() (*Figure11Result, error) {
	ctx, sp := h.obsCtx("figure13")
	defer sp.End()
	x, err := h.analysis(ctx, "ClarkNet")
	if err != nil {
		return nil, err
	}
	sessions, err := x.Sessions(ctx)
	if err != nil {
		return nil, err
	}
	counts := session.PositiveOnly(core.CharacteristicValues(core.CharRequestsPerSession, sessions))
	llcd, err := heavytail.EstimateLLCDAuto(counts)
	if err != nil {
		return nil, fmt.Errorf("repro: figure 13 fit: %w", err)
	}
	e, err := stats.NewECDF(counts)
	if err != nil {
		return nil, fmt.Errorf("repro: figure 13 ecdf: %w", err)
	}
	return &Figure11Result{Sessions: len(counts), LLCD: llcd, Points: e.LLCD()}, nil
}

// MeasuredTable is the reproduction of one of Tables 2-4.
type MeasuredTable struct {
	Characteristic string
	// Cells[interval][server].
	Cells map[string]map[string]core.TailAnalysis
}

// Table2 regenerates Table 2 (session length in seconds).
func (h *Harness) Table2() (*MeasuredTable, error) {
	ctx, sp := h.obsCtx("table2")
	defer sp.End()
	return h.tailTable(ctx, core.CharSessionLength)
}

// Table3 regenerates Table 3 (requests per session).
func (h *Harness) Table3() (*MeasuredTable, error) {
	ctx, sp := h.obsCtx("table3")
	defer sp.End()
	return h.tailTable(ctx, core.CharRequestsPerSession)
}

// Table4 regenerates Table 4 (bytes per session).
func (h *Harness) Table4() (*MeasuredTable, error) {
	ctx, sp := h.obsCtx("table4")
	defer sp.End()
	return h.tailTable(ctx, core.CharBytesPerSession)
}

// tailTable reads one characteristic's tail table from every server's
// analysis and regroups its rows by interval.
func (h *Harness) tailTable(ctx context.Context, char string) (*MeasuredTable, error) {
	tables, err := perServer(ctx, h, func(x *core.Analysis, ctx context.Context) (*core.TailTable, error) {
		return x.Tails(ctx, char)
	})
	if err != nil {
		return nil, err
	}
	out := &MeasuredTable{
		Characteristic: char,
		Cells:          make(map[string]map[string]core.TailAnalysis),
	}
	for _, interval := range Intervals() {
		out.Cells[interval] = make(map[string]core.TailAnalysis, len(tables))
	}
	for name, table := range tables {
		for interval, row := range table.Rows {
			out.Cells[interval][name] = row
		}
	}
	return out, nil
}

// ServerIntensity pairs a server's mean request rate with its
// stationary Whittle Hurst estimate.
type ServerIntensity struct {
	Server   string
	MeanRate float64
	H        float64
}

// IntensityResult holds both views of the paper's observation (2) of
// Section 4.1 ("the degree of self-similarity increases with the
// workload intensity"): across servers, and within WVU across four-hour
// windows of the raw counting series (each window analyzed on its own,
// the Crovella-Bestavros per-hour approach).
type IntensityResult struct {
	// AcrossServers lists (mean rate, stationary Whittle H) per server,
	// in the paper's descending-requests order.
	AcrossServers []ServerIntensity
	// WithinWVU holds per-window estimates of the raw WVU series and
	// Correlation their rate-H Pearson correlation.
	WithinWVU   []lrd.WindowEstimate
	Correlation float64
}

// Intensity regenerates observation 4.1(2) at both granularities. The
// four per-server arrival analyses fan out on the pool; the row order
// (the paper's descending-requests order) is fixed regardless.
func (h *Harness) Intensity() (*IntensityResult, error) {
	ctx, sp := h.obsCtx("intensity")
	defer sp.End()
	res := &IntensityResult{}
	arrivals, err := perServer(ctx, h, (*core.Analysis).RequestArrivals)
	if err != nil {
		return nil, err
	}
	for _, name := range Servers() {
		ra := arrivals[name]
		est, ok := ra.StationaryHurst.ByMethod(lrd.Whittle)
		if !ok {
			return nil, fmt.Errorf("repro: intensity: %s missing Whittle estimate", name)
		}
		res.AcrossServers = append(res.AcrossServers, ServerIntensity{Server: name, MeanRate: ra.MeanPerSecond, H: est.H})
	}
	sd, err := h.server(ctx, "WVU")
	if err != nil {
		return nil, err
	}
	counts, err := sd.store.CountsPerSecond()
	if err != nil {
		return nil, fmt.Errorf("repro: intensity series: %w", err)
	}
	const windowSize = 4 * 3600
	windows, err := lrd.WindowedHurst(counts, lrd.Whittle, windowSize)
	if err != nil {
		return nil, fmt.Errorf("repro: intensity windows: %w", err)
	}
	res.WithinWVU = windows
	corr, err := lrd.IntensityCorrelation(windows)
	if err != nil {
		return nil, fmt.Errorf("repro: intensity correlation: %w", err)
	}
	res.Correlation = corr
	return res, nil
}
