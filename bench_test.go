// Top-level benchmark harness: one benchmark per table and figure of
// the paper, each regenerating its experiment end-to-end from a fresh
// synthetic trace (generation + sessionization + estimation). Scales
// are reduced relative to cmd/paperrepro so the whole suite stays
// laptop-friendly; the harness and parameters are identical otherwise.
//
//	go test -bench=. -benchmem
package fullweb_test

import (
	"testing"

	"fullweb/internal/core"
	"fullweb/internal/repro"
)

const (
	benchScale = 0.03
	benchSeed  = 1
)

// newBenchHarness returns a harness for one benchmark iteration. days=1
// keeps the arrival-series experiments (fixed 86400-point series per
// day regardless of scale) affordable; the tail tables use the full
// week to have enough sessions.
func newBenchHarness(days int) *repro.Harness {
	h := repro.NewHarness(benchScale, benchSeed)
	h.Days = days
	cfg := core.DefaultConfig()
	if days < 7 {
		// A one-day horizon cannot contain a 24-hour period; search a
		// sub-daily band instead (same rationale as the repro tests).
		cfg.Stationarize.MinPeriod = 600
		cfg.Stationarize.MaxPeriod = 43200
	}
	cfg.Curvature.Replications = 50
	h.AnalyzerConfig = &cfg
	return h
}

func BenchmarkTable1RawData(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Table1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure2RequestSeries(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Figure2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure3ACFRaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure5ACFStationary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure5(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure4HurstRaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure4(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure6HurstStationary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure6(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure7WhittleAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure7(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure8AbryVeitchAggregation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure8(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection42PoissonRequests(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Section42(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure9SessionHurstRaw(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure9(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure10SessionHurstStationary(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(1)
		if _, err := h.Figure10(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSection512PoissonSessions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Section512(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure11LLCDSessionLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Figure11(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure12HillSessionLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Figure12(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFigure13LLCDRequestsPerSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Figure13(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2SessionLength(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Table2(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable3RequestsPerSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Table3(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable4BytesPerSession(b *testing.B) {
	for i := 0; i < b.N; i++ {
		h := newBenchHarness(7)
		if _, err := h.Table4(); err != nil {
			b.Fatal(err)
		}
	}
}
