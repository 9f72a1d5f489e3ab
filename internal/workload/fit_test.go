package workload

import (
	"context"
	"errors"
	"math"
	"testing"

	"fullweb/internal/core"
	"fullweb/internal/weblog"
)

func TestFitProfileRoundTrip(t *testing.T) {
	// Generate -> AnalyzeCtx -> FitProfile must recover the generating
	// profile's volumes and tail indices up to estimation error.
	original := NASAPub2()
	trace, err := Generate(original, Config{Scale: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Curvature.Replications = 30
	analyzer, err := core.NewAnalyzer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	model, err := analyzer.AnalyzeCtx(context.Background(), original.Name, weblog.NewStore(trace.Records))
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := FitProfile(model)
	if err != nil {
		t.Fatal(err)
	}
	if fitted.Name != original.Name {
		t.Errorf("name %q", fitted.Name)
	}
	relErr := func(got, want float64) float64 { return math.Abs(got-want) / want }
	if relErr(float64(fitted.RequestsWeek), float64(original.RequestsWeek)) > 0.15 {
		t.Errorf("requests %d, original %d", fitted.RequestsWeek, original.RequestsWeek)
	}
	if relErr(float64(fitted.SessionsWeek), float64(original.SessionsWeek)) > 0.15 {
		t.Errorf("sessions %d, original %d", fitted.SessionsWeek, original.SessionsWeek)
	}
	if relErr(fitted.AlphaDuration, original.AlphaDuration) > 0.3 {
		t.Errorf("alpha duration %v, original %v", fitted.AlphaDuration, original.AlphaDuration)
	}
	if relErr(fitted.AlphaBytes, original.AlphaBytes) > 0.3 {
		t.Errorf("alpha bytes %v, original %v", fitted.AlphaBytes, original.AlphaBytes)
	}
	// The fitted profile must itself be generable.
	back, err := Generate(fitted, Config{Scale: 1, Seed: 22, Days: 1})
	if err != nil {
		t.Fatalf("regenerating from fitted profile: %v", err)
	}
	if len(back.Records) == 0 {
		t.Fatal("fitted profile generated nothing")
	}
}

func TestFitProfileErrors(t *testing.T) {
	if _, err := FitProfile(nil); !errors.Is(err, ErrUnfittable) {
		t.Error("nil model should return ErrUnfittable")
	}
	if _, err := FitProfile(&core.FullWebModel{}); !errors.Is(err, ErrUnfittable) {
		t.Error("empty model should return ErrUnfittable")
	}
}

func TestClamp(t *testing.T) {
	if clamp(0.3, 0.5, 1) != 0.5 || clamp(2, 0.5, 1) != 1 || clamp(0.7, 0.5, 1) != 0.7 {
		t.Error("clamp wrong")
	}
}
