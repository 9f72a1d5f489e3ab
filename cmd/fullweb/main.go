// Command fullweb is the library's command-line front end:
//
//	fullweb generate -profile WVU -scale 0.05 -seed 1 -out wvu.log
//	fullweb analyze  -log wvu.log -server WVU
//	fullweb sessions -log wvu.log
//	fullweb stream   -log wvu.log -snapshot 6h
//	fullweb serve    -source s1 -source s2 -listen 127.0.0.1:8080
//
// generate synthesizes a Common Log Format trace for one of the paper's
// four server profiles; analyze runs the complete FULL-Web
// characterization pipeline on any CLF log; sessions prints the
// sessionization summary; stream runs the bounded-memory online
// pipeline with periodic snapshots (accepts gzip-rotated segments and
// stdin); serve runs the live intake server with online what-if
// capacity queries.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/gof"
	"fullweb/internal/obs"
	"fullweb/internal/reliability"
	"fullweb/internal/report"
	"fullweb/internal/session"
	"fullweb/internal/stats"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
	"fullweb/internal/workload"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fullweb:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) == 0 {
		return fmt.Errorf("usage: fullweb <generate|analyze|sessions|stream|serve> [flags]")
	}
	switch args[0] {
	case "generate":
		return cmdGenerate(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "sessions":
		return cmdSessions(args[1:], out)
	case "reliability":
		return cmdReliability(args[1:], out)
	case "thresholds":
		return cmdThresholds(args[1:], out)
	case "fit":
		return cmdFit(args[1:], out)
	case "stream":
		return cmdStream(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q (want generate, analyze, sessions, reliability, thresholds, fit, stream or serve)", args[0])
	}
}

func cmdGenerate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	profileName := fs.String("profile", "ClarkNet", "server profile: WVU, ClarkNet, CSEE or NASA-Pub2")
	profileFile := fs.String("profile-file", "", "JSON profile file (e.g. from 'fullweb fit -out'); overrides -profile")
	scale := fs.Float64("scale", 0.05, "fraction of the paper's Table 1 volumes")
	seed := fs.Int64("seed", 1, "random seed")
	days := fs.Int("days", 7, "trace horizon in days")
	outPath := fs.String("out", "", "output file (default stdout)")
	baseline := fs.Bool("poisson-baseline", false, "generate the homogeneous-Poisson baseline instead of the FULL-Web model")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var profile workload.Profile
	if *profileFile != "" {
		var err error
		if profile, err = workload.LoadProfile(*profileFile); err != nil {
			return err
		}
	} else {
		found := false
		for _, p := range workload.AllProfiles() {
			if p.Name == *profileName {
				profile = p
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("unknown profile %q", *profileName)
		}
	}
	cfg := workload.Config{Scale: *scale, Seed: *seed, Days: *days}
	var (
		trace *workload.Trace
		err   error
	)
	if *baseline {
		trace, err = workload.GeneratePoissonBaseline(profile, cfg)
	} else {
		trace, err = workload.Generate(profile, cfg)
	}
	if err != nil {
		return err
	}
	w := out
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return fmt.Errorf("creating %s: %w", *outPath, err)
		}
		defer f.Close()
		w = f
	}
	if err := weblog.WriteAll(w, trace.Records); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "generated %s records=%d sessions=%d\n",
		profile.Name, len(trace.Records), trace.PlantedSessions)
	return nil
}

func loadLog(ctx context.Context, path string) (*weblog.Store, error) {
	store, _, err := loadLogHardened(ctx, path, stream.ModeLenient, stream.Budget{}, "")
	if err != nil {
		return nil, err
	}
	return store, nil
}

// loadLogHardened reads a CLF log under an ingestion mode: strict
// fails on the first malformed line with its position, the other
// modes collect reject accounting (optionally quarantining raw lines)
// and let the budget decide the DegradedInput verdict. Opens go
// through the bounded retry policy for transient failures.
func loadLogHardened(ctx context.Context, path string, mode stream.Mode, budget stream.Budget, quarantinePath string) (*weblog.Store, stream.IngestStats, error) {
	var st stream.IngestStats
	f, err := weblog.OpenRetry(ctx, path, weblog.DefaultRetryPolicy(time.Sleep))
	if err != nil {
		return nil, st, fmt.Errorf("opening log: %w", err)
	}
	defer f.Close()
	records, bad, err := weblog.ReadAllCtx(ctx, f)
	if err != nil {
		return nil, st, err
	}
	if mode == stream.ModeStrict && len(bad) > 0 {
		return nil, st, fmt.Errorf("strict mode: %w", bad[0])
	}
	var quarantine *os.File
	if quarantinePath != "" && len(bad) > 0 {
		if quarantine, err = os.Create(quarantinePath); err != nil {
			return nil, st, fmt.Errorf("creating quarantine: %w", err)
		}
		defer quarantine.Close()
	}
	for _, pe := range bad {
		st.Rejected++
		st.Malformed++
		if len(st.Samples) < 5 {
			st.Samples = append(st.Samples, fmt.Sprintf("line %d: %v", pe.LineNumber, pe.Err))
		}
		if quarantine != nil {
			if _, err := fmt.Fprintln(quarantine, pe.Line); err != nil {
				return nil, st, fmt.Errorf("writing quarantine: %w", err)
			}
		}
	}
	st.Evaluate(mode, budget, int64(len(records)))
	if len(records) == 0 {
		return nil, st, fmt.Errorf("no parseable records in %s", path)
	}
	return weblog.NewStore(records), st, nil
}

// printInputHealth renders the analyze-side input accounting in the
// same shape as the stream snapshots' input line.
func printInputHealth(out io.Writer, st stream.IngestStats) {
	health := "ok"
	if st.Degraded {
		health = "DEGRADED"
	}
	fmt.Fprintf(out, "input: %s rejected=%s (malformed=%s oversized=%s)\n",
		health, report.Count(st.Rejected), report.Count(st.Malformed), report.Count(st.Oversized))
	for _, reason := range st.Reasons {
		fmt.Fprintf(out, "input: budget breach: %s\n", reason)
	}
	for _, sample := range st.Samples {
		fmt.Fprintf(out, "reject sample: %s\n", sample)
	}
}

func cmdAnalyze(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	logPath := fs.String("log", "", "CLF log file to analyze (required)")
	server := fs.String("server", "log", "label for the report")
	workers := fs.Int("parallel", 0, "worker pool size (0 = all CPUs, 1 = sequential); results are identical at any setting")
	mode := fs.String("mode", "budgeted", "ingestion mode: budgeted (count and degrade), strict (fail on first malformed line) or lenient (count only)")
	quarantinePath := fs.String("quarantine", "", "write rejected raw lines to this file")
	maxRejects := fs.Int64("max-rejects", 0, "budgeted mode: degrade after this many rejected lines (0 = no absolute cap)")
	maxRejectRate := fs.Float64("max-reject-rate", 0, "budgeted mode: degrade when rejects/parse-attempts exceeds this rate (0 = no rate cap)")
	reportPath := fs.String("report", "", "write the end-of-run JSON run report to this file")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	obsCfg.WantRegistry = *reportPath != ""
	if *logPath == "" {
		return fmt.Errorf("analyze: -log is required")
	}
	if *workers < 0 {
		return fmt.Errorf("analyze: -parallel must be >= 0, got %d", *workers)
	}
	ingestMode, err := stream.ParseMode(*mode)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	budget := stream.Budget{MaxRejects: *maxRejects, MaxRejectRate: *maxRejectRate}
	if err := checkBudgetMode("analyze", ingestMode, budget); err != nil {
		return err
	}
	sess, err := obsCfg.Start(obs.SystemClock(), os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx := sess.Context(context.Background())
	store, ingest, err := loadLogHardened(ctx, *logPath, ingestMode, budget, *quarantinePath)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	cfg.Metrics = sess.Metrics
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	model, err := analyzer.AnalyzeCtx(ctx, *server, store)
	if err != nil {
		return err
	}
	printModel(out, model)
	printInputHealth(out, ingest)
	if *reportPath != "" {
		rep := telemetry.RunReport{
			Tool:   "analyze",
			Inputs: []string{*logPath},
			Config: struct {
				Server string        `json:"server"`
				Mode   string        `json:"mode"`
				Budget stream.Budget `json:"budget"`
			}{*server, ingestMode.String(), budget},
			Totals: telemetry.ReportTotals{
				Records:     int64(model.Requests),
				Sessions:    int64(model.Sessions),
				Bytes:       model.BytesTransferred,
				SpanSeconds: model.Span.Seconds(),
			},
			Ingest:          ingest,
			Verdict:         telemetry.Verdict(ingest),
			Characteristics: analyzeCharacteristics(model),
			Obs:             sess.Metrics.Snapshot(),
		}
		if err := rep.WriteFile(*reportPath); err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		fmt.Fprintf(os.Stderr, "run report written to %s\n", *reportPath)
	}
	return nil
}

// analyzeCharacteristics maps the model's whole-week tail rows into the
// run report's shared characteristic shape (analyze has no streaming
// quantile sketches, so only the tail fields are filled).
func analyzeCharacteristics(m *core.FullWebModel) []telemetry.ReportCharacteristic {
	chars := make([]telemetry.ReportCharacteristic, 0, len(core.AllCharacteristics()))
	for _, name := range core.AllCharacteristics() {
		tbl, ok := m.Tails[name]
		if !ok {
			continue
		}
		row, ok := tbl.Rows[core.IntervalWeek]
		if !ok {
			continue
		}
		chars = append(chars, telemetry.ReportCharacteristic{
			Name:       name,
			N:          int64(row.N),
			HillOK:     row.Status != core.TailNA,
			HillStable: row.Hill.Stable,
			HillAlpha:  row.Hill.Alpha,
		})
	}
	return chars
}

// printModel renders a FullWebModel as the paper-style report.
func printModel(out io.Writer, m *core.FullWebModel) {
	fmt.Fprintf(out, "FULL-Web model: %s\n", m.Server)
	fmt.Fprintf(out, "  requests=%s sessions=%s bytes=%s span=%v\n\n",
		report.Count(int64(m.Requests)), report.Count(int64(m.Sessions)),
		report.Count(m.BytesTransferred), m.Span)

	printArrival := func(title string, a *core.ArrivalAnalysis) {
		fmt.Fprintf(out, "%s (mean %.3f/s over %s seconds)\n", title, a.MeanPerSecond, report.Count(int64(a.N)))
		fmt.Fprintf(out, "  stationary initially: %v (KPSS %.3f); trend removed: %v; period removed: %v",
			a.Stationarity.InitialKPSS.Stationary, a.Stationarity.InitialKPSS.Statistic,
			a.Stationarity.TrendRemoved, a.Stationarity.PeriodRemoved)
		if a.Stationarity.PeriodRemoved {
			fmt.Fprintf(out, " (period %d s)", a.Stationarity.Period)
		}
		fmt.Fprintln(out)
		tb := report.NewTable("estimator", "H (raw)", "H (stationary)", "95% CI (stationary)")
		for _, raw := range a.RawHurst.Estimates {
			st, ok := a.StationaryHurst.ByMethod(raw.Method)
			ci := ""
			hSt := ""
			if ok {
				hSt = report.F(st.H)
				if st.HasCI {
					ci = fmt.Sprintf("[%s, %s]", report.F(st.CI95Low), report.F(st.CI95High))
				}
			}
			tb.AddRow(raw.Method.String(), report.F(raw.H), hSt, ci)
		}
		fmt.Fprint(out, tb.String())
		fmt.Fprintln(out)
	}
	printArrival("Request arrivals", m.RequestArrivals)
	printArrival("Session arrivals", m.SessionArrivals)

	fmt.Fprintln(out, "Poisson batteries (accepted?)")
	tb := report.NewTable("level", "window requests", "requests", "sessions")
	levels := []weblog.WorkloadLevel{weblog.Low, weblog.Med, weblog.High}
	for _, level := range levels {
		w := m.TypicalWindows[level]
		req := verdictString(m.RequestPoisson[level])
		sess := verdictString(m.SessionPoisson[level])
		tb.AddRow(level.String(), report.Count(int64(w.Requests)), req, sess)
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintln(out)

	chars := []string{core.CharSessionLength, core.CharRequestsPerSession, core.CharBytesPerSession}
	for _, char := range chars {
		table := m.Tails[char]
		if table == nil {
			continue
		}
		fmt.Fprintf(out, "Heavy-tail analysis: %s\n", char)
		tb := report.NewTable("interval", "n", "alpha_Hill", "alpha_LLCD", "R^2", "p(Pareto)", "p(lognormal)", "xval")
		intervals := make([]string, 0, len(table.Rows))
		for k := range table.Rows {
			intervals = append(intervals, k)
		}
		sort.Strings(intervals)
		for _, interval := range intervals {
			row := table.Rows[interval]
			xval := "-"
			if row.Status != core.TailNA {
				if row.CrossValidated(0.5) {
					xval = "agree"
				} else {
					xval = "diverge"
				}
			}
			tb.AddRow(interval, report.Count(int64(row.N)), hillString(row), llcdString(row), r2String(row),
				curvString(row, true), curvString(row, false), xval)
		}
		fmt.Fprint(out, tb.String())
		fmt.Fprintln(out)
	}
}

func verdictString(p *core.PoissonAnalysis) string {
	if p == nil || len(p.Runs) == 0 {
		return "NA"
	}
	if p.Accepted() {
		return "Poisson accepted"
	}
	return "rejected"
}

func hillString(row core.TailAnalysis) string {
	switch row.Status {
	case core.TailNA:
		return "NA"
	case core.TailNS:
		return "NS"
	default:
		return report.F2(row.Hill.Alpha)
	}
}

func llcdString(row core.TailAnalysis) string {
	if row.Status == core.TailNA {
		return "NA"
	}
	return report.F(row.LLCD.Alpha)
}

func r2String(row core.TailAnalysis) string {
	if row.Status == core.TailNA {
		return "NA"
	}
	return report.F(row.LLCD.R2)
}

func curvString(row core.TailAnalysis, pareto bool) string {
	if !row.CurvatureOK {
		return "-"
	}
	if pareto {
		return report.F(row.Curvature.PPareto)
	}
	return report.F(row.Curvature.PLognormal)
}

func cmdSessions(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("sessions", flag.ContinueOnError)
	logPath := fs.String("log", "", "CLF log file (required)")
	threshold := fs.Duration("threshold", session.DefaultThreshold, "inactivity threshold")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("sessions: -log is required")
	}
	osess, err := obsCfg.Start(obs.SystemClock(), os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := osess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx := osess.Context(context.Background())
	store, err := loadLog(ctx, *logPath)
	if err != nil {
		return err
	}
	sessions, err := session.SessionizeCtx(ctx, store.All(), *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "records=%s sessions=%s threshold=%v\n",
		report.Count(int64(store.Len())), report.Count(int64(len(sessions))), *threshold)
	for _, c := range []struct {
		name   string
		values []float64
	}{
		{"duration (s)", session.PositiveOnly(session.Durations(sessions))},
		{"requests", session.RequestCounts(sessions)},
		{"bytes", session.ByteCounts(sessions)},
	} {
		if len(c.values) < 2 {
			continue
		}
		s, err := stats.Summarize(c.values)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "%-14s n=%d mean=%.1f median=%.1f p99=%.1f max=%.1f\n",
			c.name, s.N, s.Mean, s.Median, mustQuantile(c.values, 0.99), s.Max)
	}
	// A quick look at the arrival process.
	secs := session.StartSeconds(sessions)
	if len(secs) > 100 {
		_, ok := poissonQuickCheck(secs)
		if ok {
			fmt.Fprintln(out, "session arrivals: consistent with Poisson on this window")
		} else {
			fmt.Fprintln(out, "session arrivals: NOT Poisson (see paper §5.1.2)")
		}
	}
	return nil
}

func mustQuantile(x []float64, p float64) float64 {
	v, err := stats.Quantile(x, p)
	if err != nil {
		return 0
	}
	return v
}

// poissonQuickCheck runs the battery over the full span divided in four.
func poissonQuickCheck(secs []int64) (*gof.BatteryResult, bool) {
	start := secs[0]
	dur := secs[len(secs)-1] - start + 1
	dur -= dur % 4
	if dur <= 0 {
		return nil, false
	}
	res, err := gof.RunPoissonBattery(secs, start, dur, gof.DefaultBatteryConfig())
	if err != nil {
		return nil, false
	}
	return res, res.PoissonAccepted()
}

func cmdReliability(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("reliability", flag.ContinueOnError)
	logPath := fs.String("log", "", "CLF log file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("reliability: -log is required")
	}
	store, err := loadLog(context.Background(), *logPath)
	if err != nil {
		return err
	}
	rep, err := reliability.Analyze(store.All(), nil)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "requests=%s errors=%s (4xx=%s, 5xx=%s)\n",
		report.Count(int64(rep.Requests)), report.Count(int64(rep.Errors)),
		report.Count(int64(rep.ClientErrors)), report.Count(int64(rep.ServerErrors)))
	fmt.Fprintf(out, "request reliability: %.4f\n", rep.RequestReliability)
	fmt.Fprintf(out, "session reliability: %.4f (%s of %s sessions error-free)\n",
		rep.SessionReliability,
		report.Count(int64(rep.ErrorFreeSessions)), report.Count(int64(rep.Sessions)))
	if len(rep.TopErrors) > 0 {
		tb := report.NewTable("status", "count")
		limit := len(rep.TopErrors)
		if limit > 5 {
			limit = 5
		}
		for _, sc := range rep.TopErrors[:limit] {
			tb.AddRow(fmt.Sprint(sc.Status), report.Count(int64(sc.Count)))
		}
		fmt.Fprint(out, tb.String())
	}
	if rep.ErrorDispersion > 0 {
		fmt.Fprintf(out, "hourly error dispersion (VMR): %.2f", rep.ErrorDispersion)
		if rep.ErrorDispersion > 2 {
			fmt.Fprint(out, "  <- errors arrive in bursts")
		}
		fmt.Fprintln(out)
	}
	return nil
}

func cmdThresholds(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("thresholds", flag.ContinueOnError)
	logPath := fs.String("log", "", "CLF log file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("thresholds: -log is required")
	}
	store, err := loadLog(context.Background(), *logPath)
	if err != nil {
		return err
	}
	points, err := session.ThresholdStudy(store.All(), session.DefaultThresholdGrid())
	if err != nil {
		return err
	}
	tb := report.NewTable("threshold", "sessions", "mean requests/session", "mean duration (s)")
	for _, p := range points {
		tb.AddRow(p.Threshold.String(), report.Count(int64(p.Sessions)),
			report.F2(p.MeanRequests), report.F2(p.MeanDuration))
	}
	fmt.Fprint(out, tb.String())
	fmt.Fprintln(out, "\nthe paper adopts 30m: the session count has flattened by then (section 2)")
	return nil
}

func cmdFit(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("fit", flag.ContinueOnError)
	logPath := fs.String("log", "", "CLF log file (required)")
	server := fs.String("server", "log", "name for the fitted profile")
	outPath := fs.String("out", "", "write the fitted profile as JSON to this file")
	workers := fs.Int("parallel", 0, "worker pool size (0 = all CPUs, 1 = sequential); results are identical at any setting")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *logPath == "" {
		return fmt.Errorf("fit: -log is required")
	}
	if *workers < 0 {
		return fmt.Errorf("fit: -parallel must be >= 0, got %d", *workers)
	}
	sess, err := obsCfg.Start(obs.SystemClock(), os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx := sess.Context(context.Background())
	store, err := loadLog(ctx, *logPath)
	if err != nil {
		return err
	}
	cfg := core.DefaultConfig()
	cfg.Workers = *workers
	cfg.Metrics = sess.Metrics
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		return err
	}
	model, err := analyzer.AnalyzeCtx(ctx, *server, store)
	if err != nil {
		return err
	}
	profile, err := workload.FitProfile(model)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fitted profile %q (normalized to one week):\n", profile.Name)
	tb := report.NewTable("parameter", "value")
	tb.AddRow("requests/week", report.Count(int64(profile.RequestsWeek)))
	tb.AddRow("sessions/week", report.Count(int64(profile.SessionsWeek)))
	tb.AddRow("MB/week", report.F2(profile.MBWeek))
	tb.AddRow("Hurst (session arrivals)", report.F(profile.Hurst))
	tb.AddRow("alpha session length", report.F(profile.AlphaDuration))
	tb.AddRow("alpha requests/session", report.F(profile.AlphaRequests))
	tb.AddRow("alpha bytes/session", report.F(profile.AlphaBytes))
	tb.AddRow("diurnal amplitude", report.F2(profile.DiurnalAmplitude))
	tb.AddRow("trend slope", report.F2(profile.TrendSlope))
	fmt.Fprint(out, tb.String())
	if *outPath != "" {
		if err := profile.SaveProfile(*outPath); err != nil {
			return err
		}
		fmt.Fprintf(out, "\nprofile written to %s; regenerate with: fullweb generate -profile-file %s\n", *outPath, *outPath)
	} else {
		fmt.Fprintln(out, "\nsave with -out profile.json, then: fullweb generate -profile-file profile.json")
	}
	return nil
}
