// Package core assembles the paper's contribution: the FULL-Web
// characterization pipeline. Given a Web log it performs the
// request-level analysis of Section 4 (stationarity testing, trend and
// periodicity removal, the five-estimator Hurst battery on raw and
// stationary series, aggregation sweeps, and the Poisson test battery)
// and the session-level analysis of Section 5 (the same arrival-process
// analysis for sessions plus heavy-tail analysis of the three
// intra-session characteristics with LLCD, Hill and curvature-test
// cross-validation).
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"fullweb/internal/gof"
	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/session"
	"fullweb/internal/stats"
	"fullweb/internal/timeseries"
	"fullweb/internal/weblog"
)

// ErrNoData is returned when the log holds nothing to analyze.
var ErrNoData = errors.New("core: no data")

// Config tunes the pipeline. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// SessionThreshold delimits sessions (the paper uses 30 minutes).
	SessionThreshold time.Duration
	// Stationarize configures trend/periodicity removal.
	Stationarize timeseries.StationarizeConfig
	// ACFMaxLag bounds the autocorrelation plots (Figures 3 and 5).
	ACFMaxLag int
	// HillTailFraction and HillRelTol configure the Hill estimator.
	HillTailFraction float64
	HillRelTol       float64
	// Curvature configures Downey's test.
	Curvature heavytail.CurvatureConfig
	// MinTailSample is the minimum number of positive observations an
	// intra-session characteristic needs; below it the paper reports NA.
	MinTailSample int
	// SweepMinBlocks caps the aggregation sweep levels so the aggregated
	// series keeps at least this many blocks.
	SweepMinBlocks int
	// WindowDuration is the typical-interval width (four hours in the
	// paper).
	WindowDuration time.Duration
	// Battery configures the Poisson test batteries. The Subintervals
	// and Mode fields are overridden per run.
	Battery gof.BatteryConfig
	// Workers bounds the analysis worker pool: independent estimators,
	// battery runs and per-window experiments share this many slots.
	// 0 means runtime.NumCPU(); 1 forces near-sequential execution.
	// Every fan-out collects results in a fixed order with fixed
	// per-task seeds, so the output is byte-identical at any setting.
	Workers int
	// Metrics optionally instruments the analyzer's worker pool (run
	// counts, occupancy) in addition to whatever registry travels in the
	// analysis context. Nil — the default — costs nothing and changes
	// nothing: instrumentation never influences computed results.
	Metrics *obs.Registry
}

// DefaultConfig returns the paper's parameters.
func DefaultConfig() Config {
	return Config{
		SessionThreshold: session.DefaultThreshold,
		Stationarize:     timeseries.DefaultStationarizeConfig(),
		ACFMaxLag:        1000,
		HillTailFraction: heavytail.DefaultHillTailFraction,
		HillRelTol:       heavytail.DefaultHillRelTol,
		Curvature:        heavytail.DefaultCurvatureConfig(),
		MinTailSample:    100,
		SweepMinBlocks:   512,
		WindowDuration:   4 * time.Hour,
		Battery:          gof.DefaultBatteryConfig(),
	}
}

// Analyzer runs the FULL-Web pipeline. An Analyzer is safe for
// concurrent use; all its experiments share one bounded worker pool.
type Analyzer struct {
	cfg  Config
	pool *parallel.Pool
}

// NewAnalyzer validates the configuration and returns an analyzer.
func NewAnalyzer(cfg Config) (*Analyzer, error) {
	if cfg.SessionThreshold <= 0 {
		return nil, fmt.Errorf("core: non-positive session threshold %v", cfg.SessionThreshold)
	}
	if cfg.ACFMaxLag < 1 {
		return nil, fmt.Errorf("core: ACF max lag %d", cfg.ACFMaxLag)
	}
	if cfg.MinTailSample < 10 {
		return nil, fmt.Errorf("core: MinTailSample %d too small", cfg.MinTailSample)
	}
	if cfg.WindowDuration <= 0 {
		return nil, fmt.Errorf("core: non-positive window duration %v", cfg.WindowDuration)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("core: negative worker count %d", cfg.Workers)
	}
	pool := parallel.NewPool(cfg.Workers)
	pool.Instrument(cfg.Metrics)
	return &Analyzer{cfg: cfg, pool: pool}, nil
}

// Pool exposes the analyzer's worker pool so callers that fan out their
// own experiments (e.g. the repro harness) share one global bound
// instead of multiplying pools.
func (a *Analyzer) Pool() *parallel.Pool { return a.pool }

// ArrivalAnalysis is the Section 4 / Section 5.1.1 analysis of one
// counting series (requests or sessions initiated per second).
type ArrivalAnalysis struct {
	// N is the series length in seconds.
	N int
	// MeanPerSecond is the average event rate.
	MeanPerSecond float64
	// ACFRaw and ACFStationary are the autocorrelation functions before
	// and after trend/periodicity removal (Figures 3 and 5).
	ACFRaw        []float64
	ACFStationary []float64
	// RawHurst holds the five-estimator battery on the raw series
	// (Figures 4 and 9); StationaryHurst after stationarizing (Figures 6
	// and 10).
	RawHurst        *lrd.BatteryResult
	StationaryHurst *lrd.BatteryResult
	// Stationarity records what the pipeline removed.
	Stationarity *timeseries.StationarizeResult
	// WhittleSweep and AbryVeitchSweep are the aggregation sweeps with
	// confidence intervals (Figures 7 and 8).
	WhittleSweep    []lrd.SweepPoint
	AbryVeitchSweep []lrd.SweepPoint
}

// AnalyzeArrivalSeriesCtx runs the arrival-process analysis on a
// counting series with one-second bins, with the independent
// estimators fanned out on the analyzer's worker pool. The analysis has
// one dependency barrier — stationarizing must finish before anything
// touches the stationary series — so it runs as two parallel stages:
// (raw ACF, raw Hurst battery, stationarize), then (stationary ACF,
// stationary battery, Whittle sweep, Abry-Veitch sweep). A failing task
// cancels its unstarted siblings through ctx.
func (a *Analyzer) AnalyzeArrivalSeriesCtx(ctx context.Context, counts []float64) (*ArrivalAnalysis, error) {
	ctx, sp := obs.StartSpan(ctx, "core.arrivals")
	sp.SetInt("n", int64(len(counts)))
	defer sp.End()
	if len(counts) < 256 {
		return nil, fmt.Errorf("%w: %d seconds of counts", ErrNoData, len(counts))
	}
	res := &ArrivalAnalysis{N: len(counts)}
	res.MeanPerSecond, _ = stats.Mean(counts)
	maxLag := a.cfg.ACFMaxLag
	if maxLag >= len(counts) {
		maxLag = len(counts) - 1
	}
	err := a.pool.ForEach(ctx, 3, func(ctx context.Context, i int) error {
		var err error
		switch i {
		case 0:
			_, ssp := obs.StartSpan(ctx, "core.acf.raw")
			res.ACFRaw, err = stats.AutocorrelationFFT(counts, maxLag)
			ssp.End()
			if err != nil {
				return fmt.Errorf("core: raw ACF: %w", err)
			}
		case 1:
			if res.RawHurst, err = lrd.RunBatteryCtx(ctx, counts, a.pool); err != nil {
				return fmt.Errorf("core: raw Hurst battery: %w", err)
			}
		case 2:
			_, ssp := obs.StartSpan(ctx, "core.stationarize")
			res.Stationarity, err = timeseries.Stationarize(counts, a.cfg.Stationarize)
			ssp.End()
			if err != nil {
				return fmt.Errorf("core: stationarizing: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	stationary := res.Stationarity.Series
	if maxLag >= len(stationary) {
		maxLag = len(stationary) - 1
	}
	levels := lrd.DefaultSweepLevels(len(stationary), a.cfg.SweepMinBlocks)
	err = a.pool.ForEach(ctx, 4, func(ctx context.Context, i int) error {
		var err error
		switch i {
		case 0:
			_, ssp := obs.StartSpan(ctx, "core.acf.stationary")
			res.ACFStationary, err = stats.AutocorrelationFFT(stationary, maxLag)
			ssp.End()
			if err != nil {
				return fmt.Errorf("core: stationary ACF: %w", err)
			}
		case 1:
			if res.StationaryHurst, err = lrd.RunBatteryCtx(ctx, stationary, a.pool); err != nil {
				return fmt.Errorf("core: stationary Hurst battery: %w", err)
			}
		case 2:
			if len(levels) == 0 {
				return nil
			}
			if res.WhittleSweep, err = lrd.AggregationSweepCtx(ctx, stationary, lrd.Whittle, levels); err != nil {
				return fmt.Errorf("core: Whittle sweep: %w", err)
			}
		case 3:
			if len(levels) == 0 {
				return nil
			}
			if res.AbryVeitchSweep, err = lrd.AggregationSweepCtx(ctx, stationary, lrd.AbryVeitch, levels); err != nil {
				return fmt.Errorf("core: Abry-Veitch sweep: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// TailStatus mirrors the annotations of Tables 2-4.
type TailStatus int

const (
	// TailOK means both estimators produced values.
	TailOK TailStatus = iota + 1
	// TailNS means the Hill plot did not stabilize ("NS" in the tables);
	// the LLCD estimate is still reported.
	TailNS
	// TailNA means there were not enough observations ("NA").
	TailNA
)

// String renders the annotation.
func (s TailStatus) String() string {
	switch s {
	case TailOK:
		return "ok"
	case TailNS:
		return "NS"
	case TailNA:
		return "NA"
	default:
		return fmt.Sprintf("status(%d)", int(s))
	}
}

// TailAnalysis is the heavy-tail analysis of one intra-session
// characteristic on one interval: one cell group of Tables 2-4.
type TailAnalysis struct {
	// Name identifies the characteristic; Level the interval.
	Name  string
	Level string
	// N is the number of positive observations analyzed.
	N      int
	Status TailStatus
	// LLCD is the regression estimate (alpha_LLCD and R^2 in the tables).
	LLCD heavytail.LLCDResult
	// Hill is the Hill-plot estimate (alpha_Hill).
	Hill heavytail.HillResult
	// Curvature is Downey's test (Section 5.2.1's Pareto-vs-lognormal
	// discussion); only meaningful when CurvatureOK.
	Curvature   heavytail.CurvatureResult
	CurvatureOK bool
	// Moments (Dekkers-Einmahl-de Haan) and QQ (Pareto quantile plot)
	// are additional cross-validations of the tail index, in the
	// paper's several-methods spirit; only meaningful when the
	// corresponding OK flag is set.
	Moments   heavytail.MomentsResult
	MomentsOK bool
	QQ        heavytail.QQResult
	QQOK      bool
}

// CrossValidated reports whether the LLCD estimate is corroborated by
// every estimator that produced a value (Hill, moments, QQ) within the
// given absolute tolerance.
func (t TailAnalysis) CrossValidated(tol float64) bool {
	if t.Status == TailNA {
		return false
	}
	ref := t.LLCD.Alpha
	check := func(v float64, ok bool) bool {
		if !ok {
			return true
		}
		d := v - ref
		return d >= -tol && d <= tol
	}
	return check(t.Hill.Alpha, t.Hill.Stable) &&
		check(t.Moments.Alpha, t.MomentsOK && t.Moments.Stable && t.Moments.Gamma > 0) &&
		check(t.QQ.AlphaFromSlope, t.QQOK)
}

// AnalyzeTailCtx runs the tail analysis of one characteristic, with
// the five tail estimators (LLCD, Hill, curvature, moments, QQ) fanned
// out on the analyzer's worker pool. Non-positive observations are
// dropped first (e.g. zero-duration single-request sessions). The
// estimators are independent and individually deterministic
// (curvature's Monte Carlo is seeded in its config), and the results
// are assembled with the same precedence as the sequential path, so the
// outcome is identical at any pool size. The speculative Hill/curvature/
// moments/QQ work is discarded when LLCD declares the sample NA —
// exactly what the sequential path would never have computed.
func (a *Analyzer) AnalyzeTailCtx(ctx context.Context, name, level string, values []float64) (TailAnalysis, error) {
	ctx, sp := obs.StartSpan(ctx, "core.tail")
	sp.SetAttr("name", name)
	sp.SetAttr("level", level)
	defer sp.End()
	res := TailAnalysis{Name: name, Level: level}
	positive := session.PositiveOnly(values)
	res.N = len(positive)
	sp.SetInt("n", int64(res.N))
	if res.N < a.cfg.MinTailSample {
		res.Status = TailNA
		return res, nil
	}
	var (
		llcd    heavytail.LLCDResult
		llcdErr error
		hill    heavytail.HillResult
		hillErr error
		curv    heavytail.CurvatureResult
		curvErr error
		mom     heavytail.MomentsResult
		momErr  error
		qq      heavytail.QQResult
		qqErr   error
	)
	// Estimator outcomes feed the assembly below rather than aborting
	// the fan-out: which errors are fatal depends on which estimator
	// produced them, decided in sequential precedence order.
	estimators := []string{"llcd", "hill", "curvature", "moments", "qq"}
	perr := a.pool.ForEach(ctx, 5, func(ctx context.Context, i int) error {
		_, esp := obs.StartSpan(ctx, "heavytail.estimate")
		esp.SetAttr("estimator", estimators[i])
		defer esp.End()
		switch i {
		case 0:
			llcd, llcdErr = heavytail.EstimateLLCDAuto(positive)
		case 1:
			hill, hillErr = heavytail.EstimateHill(positive, a.cfg.HillTailFraction, a.cfg.HillRelTol)
		case 2:
			curv, curvErr = heavytail.CurvatureTest(positive, a.cfg.Curvature)
		case 3:
			mom, momErr = heavytail.EstimateMoments(positive, a.cfg.HillTailFraction, 0.5)
		case 4:
			qq, qqErr = heavytail.ParetoQQ(positive, a.cfg.HillTailFraction)
		}
		return nil
	})
	if perr != nil {
		return res, perr
	}
	if llcdErr != nil {
		if errors.Is(llcdErr, heavytail.ErrTooFewTail) {
			res.Status = TailNA
			return res, nil
		}
		return res, fmt.Errorf("core: %s/%s LLCD: %w", name, level, llcdErr)
	}
	res.LLCD = llcd
	if hillErr != nil && !errors.Is(hillErr, heavytail.ErrTooFewTail) {
		return res, fmt.Errorf("core: %s/%s Hill: %w", name, level, hillErr)
	}
	res.Hill = hill
	if hill.Stable {
		res.Status = TailOK
	} else {
		res.Status = TailNS
	}
	if curvErr == nil {
		res.Curvature = curv
		res.CurvatureOK = true
	}
	if momErr == nil {
		res.Moments = mom
		res.MomentsOK = true
	}
	if qqErr == nil {
		res.QQ = qq
		res.QQOK = true
	}
	return res, nil
}

// PoissonAnalysis is the Section 4.2 / 5.1.2 battery on one typical
// window: hourly and ten-minute subdivisions under both sub-second
// spreading assumptions.
type PoissonAnalysis struct {
	Level  weblog.WorkloadLevel
	Window weblog.Window
	// Events is the number of events in the window.
	Events int
	// Runs holds the batteries keyed by subinterval count then spreading
	// mode. A missing entry means the window had too few events (the
	// paper's "not sufficient to conduct the test").
	Runs map[int]map[gof.SpreadMode]*gof.BatteryResult
}

// Accepted reports whether every battery that ran accepted the Poisson
// hypothesis (and at least one ran).
func (p *PoissonAnalysis) Accepted() bool {
	ran := false
	for _, byMode := range p.Runs {
		for _, res := range byMode {
			ran = true
			if !res.PoissonAccepted() {
				return false
			}
		}
	}
	return ran
}

// AnalyzePoissonCtx runs the batteries on the events of one window,
// with the four battery runs (hourly and ten-minute subdivisions under
// both spreading assumptions) fanned out on the analyzer's worker pool.
// Each run derives its randomness from the same fixed config seed as
// the sequential path, and results are assembled into the Runs map
// after all tasks finish, so the outcome is identical at any pool size.
func (a *Analyzer) AnalyzePoissonCtx(ctx context.Context, level weblog.WorkloadLevel, window weblog.Window, eventSeconds []int64) (*PoissonAnalysis, error) {
	ctx, sp := obs.StartSpan(ctx, "core.poisson")
	sp.SetAttr("level", level.String())
	sp.SetInt("events", int64(len(eventSeconds)))
	defer sp.End()
	res := &PoissonAnalysis{
		Level:  level,
		Window: window,
		Events: len(eventSeconds),
		Runs:   make(map[int]map[gof.SpreadMode]*gof.BatteryResult),
	}
	start := window.Start.Unix()
	duration := int64(window.Duration / time.Second)
	type combo struct {
		sub  int
		mode gof.SpreadMode
	}
	var combos []combo
	for _, sub := range []int{4, 24} {
		for _, mode := range []gof.SpreadMode{gof.SpreadUniform, gof.SpreadDeterministic} {
			combos = append(combos, combo{sub, mode})
		}
	}
	batteries, err := parallel.Map(ctx, a.pool, len(combos), func(ctx context.Context, i int) (*gof.BatteryResult, error) {
		cfg := a.cfg.Battery
		cfg.Subintervals = combos[i].sub
		cfg.Mode = combos[i].mode
		battery, err := gof.RunPoissonBatteryCtx(ctx, eventSeconds, start, duration, cfg, a.pool)
		if err != nil {
			if errors.Is(err, gof.ErrTooFew) {
				return nil, nil // window too sparse for this subdivision
			}
			return nil, fmt.Errorf("core: Poisson battery %d/%v: %w", combos[i].sub, combos[i].mode, err)
		}
		return battery, nil
	})
	if err != nil {
		return nil, err
	}
	for i, battery := range batteries {
		if battery == nil {
			continue
		}
		if res.Runs[combos[i].sub] == nil {
			res.Runs[combos[i].sub] = make(map[gof.SpreadMode]*gof.BatteryResult)
		}
		res.Runs[combos[i].sub][combos[i].mode] = battery
	}
	return res, nil
}
