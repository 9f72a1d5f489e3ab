package repro

import (
	"context"
	"reflect"
	"testing"
	"time"

	"fullweb/internal/core"
)

// TestHarnessMatchesAnalyze is the equivalence gate between the two
// faces of the FULL-Web pipeline: every artifact the harness reports for
// one server must equal, under reflect.DeepEqual, the corresponding part
// of the model core's AnalyzeCtx computes on the same store with the
// same configuration — so paperrepro prints exactly what `fullweb
// analyze` computes. The second case moves the session threshold off
// the paper's 30 minutes, which the harness must honour too: 30 s, since
// the generator's intra-session gaps all sit below 5 minutes, so any
// threshold from there up sessionizes its traces identically.
func TestHarnessMatchesAnalyze(t *testing.T) {
	const server = "WVU"
	for _, tc := range []struct {
		name string
		tune func(*core.Config)
	}{
		{"default-threshold", func(*core.Config) {}},
		{"30s-threshold", func(c *core.Config) { c.SessionThreshold = 30 * time.Second }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHarness(0.02, 4)
			h.Days = 1
			h.Workers = 2
			cfg := core.DefaultConfig()
			cfg.Stationarize.MinPeriod = 600
			cfg.Stationarize.MaxPeriod = 43200
			cfg.Curvature.Replications = 25
			// No aggregation sweeps (no level keeps this many blocks) and
			// a short ACF keep the gate cheap: the batteries it compares
			// already show both paths hand the same series to the same
			// arrival analysis.
			cfg.SweepMinBlocks = 1 << 30
			cfg.ACFMaxLag = 100
			tc.tune(&cfg)
			h.AnalyzerConfig = &cfg

			sd, err := h.server(context.Background(), server)
			if err != nil {
				t.Fatal(err)
			}
			a, err := core.NewAnalyzer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			model, err := a.AnalyzeCtx(context.Background(), server, sd.store)
			if err != nil {
				t.Fatal(err)
			}

			check := func(what string, got, want any) {
				t.Helper()
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: harness differs from AnalyzeCtx", what)
				}
			}
			table1, err := h.Table1()
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range table1 {
				if row.Server == server {
					check("Table 1 requests", row.Requests, model.Requests)
					check("Table 1 sessions", row.Sessions, model.Sessions)
				}
			}

			for _, fig := range []struct {
				name string
				run  func() (HurstMatrix, error)
				want any
			}{
				{"Figure 4", h.Figure4, model.RequestArrivals.RawHurst},
				{"Figure 6", h.Figure6, model.RequestArrivals.StationaryHurst},
				{"Figure 9", h.Figure9, model.SessionArrivals.RawHurst},
				{"Figure 10", h.Figure10, model.SessionArrivals.StationaryHurst},
			} {
				m, err := fig.run()
				if err != nil {
					t.Fatal(err)
				}
				check(fig.name, m[server], fig.want)
			}

			s42, err := h.Section42()
			if err != nil {
				t.Fatal(err)
			}
			check("Section 4.2", s42[server], model.RequestPoisson)
			s512, err := h.Section512()
			if err != nil {
				t.Fatal(err)
			}
			check("Section 5.1.2", s512[server], model.SessionPoisson)

			for _, table := range []struct {
				run  func() (*MeasuredTable, error)
				char string
			}{
				{h.Table2, core.CharSessionLength},
				{h.Table3, core.CharRequestsPerSession},
				{h.Table4, core.CharBytesPerSession},
			} {
				mt, err := table.run()
				if err != nil {
					t.Fatal(err)
				}
				for _, interval := range Intervals() {
					got, gotOK := mt.Cells[interval][server]
					want, wantOK := model.Tails[table.char].Rows[interval]
					check(table.char+" "+interval+" presence", gotOK, wantOK)
					check(table.char+" "+interval, got, want)
				}
			}
		})
	}
}
