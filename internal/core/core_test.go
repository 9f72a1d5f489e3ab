package core

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"fullweb/internal/fgn"
	"fullweb/internal/lrd"
	"fullweb/internal/weblog"
)

func TestNewAnalyzerValidation(t *testing.T) {
	bad := DefaultConfig()
	bad.SessionThreshold = 0
	if _, err := NewAnalyzer(bad); err == nil {
		t.Error("zero threshold should fail")
	}
	bad = DefaultConfig()
	bad.ACFMaxLag = 0
	if _, err := NewAnalyzer(bad); err == nil {
		t.Error("zero ACF lag should fail")
	}
	bad = DefaultConfig()
	bad.MinTailSample = 1
	if _, err := NewAnalyzer(bad); err == nil {
		t.Error("tiny MinTailSample should fail")
	}
	bad = DefaultConfig()
	bad.WindowDuration = 0
	if _, err := NewAnalyzer(bad); err == nil {
		t.Error("zero window duration should fail")
	}
	good, err := NewAnalyzer(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if good.cfg.ACFMaxLag != 1000 {
		t.Error("the analyzer should keep its configuration")
	}
}

func mustAnalyzer(t testing.TB, cfg Config) *Analyzer {
	t.Helper()
	a, err := NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

func TestAnalyzeArrivalSeriesOnFGNCounts(t *testing.T) {
	// Counting series built from LRD noise + trend + periodicity: the
	// pipeline must detect non-stationarity, remove both, and both
	// batteries must indicate LRD with raw >= stationary H mostly.
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 16
	noise, err := fgn.Generate(rng, 0.8, n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]float64, n)
	for i := range counts {
		counts[i] = 20 +
			4*noise[i] +
			0.0001*float64(i) +
			6*math.Sin(2*math.Pi*float64(i)/8192)
	}
	cfg := DefaultConfig()
	cfg.Stationarize.MinPeriod = 1000
	cfg.Stationarize.MaxPeriod = 16384
	cfg.Stationarize.SNRThreshold = 20
	a := mustAnalyzer(t, cfg)
	res, err := a.AnalyzeArrivalSeriesCtx(context.Background(), counts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stationarity.InitialKPSS.Stationary {
		t.Error("trended periodic series should test non-stationary")
	}
	if !res.Stationarity.TrendRemoved || !res.Stationarity.PeriodRemoved {
		t.Errorf("pipeline removed trend=%v period=%v; want both", res.Stationarity.TrendRemoved, res.Stationarity.PeriodRemoved)
	}
	if got := res.Stationarity.Period; got < 8000 || got > 8400 {
		t.Errorf("detected period %d, want ~8192", got)
	}
	w, ok := res.StationaryHurst.ByMethod(lrd.Whittle)
	if !ok {
		t.Fatal("no stationary Whittle estimate")
	}
	if w.H < 0.65 || w.H > 0.95 {
		t.Errorf("stationary Whittle H = %v, planted 0.8", w.H)
	}
	higher, total := overestimationCount(res)
	if total < 4 {
		t.Fatalf("only %d comparable estimates", total)
	}
	if higher < total/2 {
		t.Errorf("raw H higher in only %d/%d estimators; paper expects mostly higher", higher, total)
	}
	if len(res.WhittleSweep) == 0 || len(res.AbryVeitchSweep) == 0 {
		t.Error("aggregation sweeps missing")
	}
	if len(res.ACFRaw) != cfg.ACFMaxLag+1 {
		t.Errorf("raw ACF length %d", len(res.ACFRaw))
	}
	// Stationarized ACF must decay below the raw ACF at moderate lags
	// (Figure 5 vs Figure 3).
	if res.ACFStationary[100] >= res.ACFRaw[100] {
		t.Errorf("stationary ACF(100)=%v not below raw %v", res.ACFStationary[100], res.ACFRaw[100])
	}
}

func TestAnalyzeArrivalSeriesTooShort(t *testing.T) {
	a := mustAnalyzer(t, DefaultConfig())
	if _, err := a.AnalyzeArrivalSeriesCtx(context.Background(), make([]float64, 100)); !errors.Is(err, ErrNoData) {
		t.Error("short series should return ErrNoData")
	}
}

func TestTailStatusString(t *testing.T) {
	if TailOK.String() != "ok" || TailNS.String() != "NS" || TailNA.String() != "NA" {
		t.Error("status names wrong")
	}
	if TailStatus(9).String() == "" {
		t.Error("unknown status should stringify")
	}
}

func TestAnalyzeTailParetoData(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	values := make([]float64, 20000)
	for i := range values {
		u := 1 - rng.Float64()
		values[i] = 30 * math.Pow(u, -1/1.7) // Pareto(1.7, 30)
	}
	a := mustAnalyzer(t, DefaultConfig())
	res, err := a.AnalyzeTailCtx(context.Background(), CharSessionLength, "High", values)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != TailOK {
		t.Fatalf("status = %v, want ok (hill stable=%v)", res.Status, res.Hill.Stable)
	}
	if math.Abs(res.LLCD.Alpha-1.7) > 0.2 {
		t.Errorf("LLCD alpha %v, want ~1.7", res.LLCD.Alpha)
	}
	if math.Abs(res.Hill.Alpha-1.7) > 0.25 {
		t.Errorf("Hill alpha %v, want ~1.7", res.Hill.Alpha)
	}
	if !res.CurvatureOK {
		t.Fatal("curvature test should have run")
	}
	if res.Curvature.RejectPareto() {
		t.Errorf("Pareto rejected on Pareto data: p=%v", res.Curvature.PPareto)
	}
}

func TestAnalyzeTailNA(t *testing.T) {
	a := mustAnalyzer(t, DefaultConfig())
	res, err := a.AnalyzeTailCtx(context.Background(), CharSessionLength, "Low", []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != TailNA {
		t.Fatalf("status = %v, want NA", res.Status)
	}
	// Zero-duration sessions are excluded before the NA check.
	zeros := make([]float64, 1000)
	res, err = a.AnalyzeTailCtx(context.Background(), CharSessionLength, "Low", zeros)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != TailNA || res.N != 0 {
		t.Fatalf("all-zero input: status=%v n=%d, want NA/0", res.Status, res.N)
	}
}

func TestAnalyzeEmptyStore(t *testing.T) {
	a := mustAnalyzer(t, DefaultConfig())
	if _, err := a.AnalyzeCtx(context.Background(), "x", weblog.NewStore(nil)); !errors.Is(err, ErrNoData) {
		t.Error("empty store should return ErrNoData")
	}
	if _, err := a.AnalyzeCtx(context.Background(), "x", nil); !errors.Is(err, ErrNoData) {
		t.Error("nil store should return ErrNoData")
	}
}

func TestAnalyzeTailCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	values := make([]float64, 20000)
	for i := range values {
		u := 1 - rng.Float64()
		values[i] = 10 * math.Pow(u, -1/1.6) // Pareto(1.6, 10)
	}
	a := mustAnalyzer(t, DefaultConfig())
	res, err := a.AnalyzeTailCtx(context.Background(), CharBytesPerSession, "Week", values)
	if err != nil {
		t.Fatal(err)
	}
	if !res.MomentsOK || !res.QQOK {
		t.Fatalf("cross-validators missing: moments=%v qq=%v", res.MomentsOK, res.QQOK)
	}
	if math.Abs(res.QQ.AlphaFromSlope-1.6) > 0.4 {
		t.Errorf("QQ alpha %v", res.QQ.AlphaFromSlope)
	}
	if res.Moments.Stable && math.Abs(res.Moments.Alpha-1.6) > 0.5 {
		t.Errorf("moments alpha %v", res.Moments.Alpha)
	}
	if !res.CrossValidated(0.5) {
		t.Errorf("exact Pareto data should cross-validate: LLCD %v Hill %v moments %v QQ %v",
			res.LLCD.Alpha, res.Hill.Alpha, res.Moments.Alpha, res.QQ.AlphaFromSlope)
	}
	// NA rows never cross-validate.
	na := TailAnalysis{Status: TailNA}
	if na.CrossValidated(1) {
		t.Error("NA row cross-validated")
	}
}

// overestimationCount returns how many estimators reported a higher H
// on the raw series than on the stationary one — the paper's evidence
// that ignoring trend and periodicity overestimates long-range
// dependence (Figures 4 vs 6).
func overestimationCount(a *ArrivalAnalysis) (higher, total int) {
	if a.RawHurst == nil || a.StationaryHurst == nil {
		return 0, 0
	}
	for _, raw := range a.RawHurst.Estimates {
		st, ok := a.StationaryHurst.ByMethod(raw.Method)
		if !ok {
			continue
		}
		total++
		if raw.H > st.H {
			higher++
		}
	}
	return higher, total
}
