package workload

import (
	"errors"
	"fmt"
	"math"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/lrd"
)

// ErrUnfittable is returned when a FullWebModel lacks the measurements a
// Profile needs.
var ErrUnfittable = errors.New("workload: model not fittable")

// FitProfile turns a measured FullWebModel back into a generative
// Profile — the reason one builds a workload characterization in the
// first place (the paper's FULL-TEL analogy: Paxson & Floyd's TELNET
// model exists so simulations can use it). Volumes are normalized to a
// one-week horizon; the Hurst parameter comes from the Whittle estimate
// of the stationary session arrival series; the tail indices from the
// Week rows of the heavy-tail tables.
//
// Round trip: Generate -> AnalyzeCtx -> FitProfile recovers the generating
// profile up to estimation error (see the fit tests), so a profile
// fitted from a real log can synthesize arbitrarily many statistically
// faithful traces.
func FitProfile(model *core.FullWebModel) (Profile, error) {
	if model == nil {
		return Profile{}, fmt.Errorf("%w: nil model", ErrUnfittable)
	}
	if model.Span <= 0 {
		return Profile{}, fmt.Errorf("%w: non-positive span %v", ErrUnfittable, model.Span)
	}
	week := float64(7 * 24 * time.Hour)
	scale := week / float64(model.Span)
	p := Profile{
		Name:         model.Server,
		RequestsWeek: int(math.Round(float64(model.Requests) * scale)),
		SessionsWeek: int(math.Round(float64(model.Sessions) * scale)),
		MBWeek:       float64(model.BytesTransferred) / 1e6 * scale,
	}
	// Hurst from the session arrival process (the generator modulates
	// session arrivals; request-level LRD is emergent).
	if model.SessionArrivals == nil || model.SessionArrivals.StationaryHurst == nil {
		return Profile{}, fmt.Errorf("%w: missing session arrival analysis", ErrUnfittable)
	}
	est, ok := model.SessionArrivals.StationaryHurst.ByMethod(lrd.Whittle)
	if !ok {
		return Profile{}, fmt.Errorf("%w: missing Whittle estimate", ErrUnfittable)
	}
	p.Hurst = clamp(est.H, 0.51, 0.98)
	// Tail indices from the Week rows.
	var err error
	if p.AlphaDuration, err = weekAlpha(model, core.CharSessionLength); err != nil {
		return Profile{}, err
	}
	if p.AlphaRequests, err = weekAlpha(model, core.CharRequestsPerSession); err != nil {
		return Profile{}, err
	}
	if p.AlphaBytes, err = weekAlpha(model, core.CharBytesPerSession); err != nil {
		return Profile{}, err
	}
	// Periodicity and trend: carried qualitatively. The analyzer removes
	// rather than parameterizes them, so the fitted profile uses a
	// moderate diurnal amplitude when a daily period was detected and
	// converts the fitted linear trend into a relative slope.
	if sa := model.SessionArrivals.Stationarity; sa != nil {
		if sa.PeriodRemoved {
			p.DiurnalAmplitude = 0.5
		}
		if sa.TrendRemoved {
			n := float64(model.SessionArrivals.N)
			base := sa.Trend.Intercept
			if base > 0 {
				p.TrendSlope = clamp(sa.Trend.Slope*n/base, -0.5, 2)
			}
		}
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("workload: fitted profile invalid: %w", err)
	}
	return p, nil
}

func weekAlpha(model *core.FullWebModel, char string) (float64, error) {
	table, ok := model.Tails[char]
	if !ok {
		return 0, fmt.Errorf("%w: missing tail table %s", ErrUnfittable, char)
	}
	row, ok := table.Rows[core.IntervalWeek]
	if !ok || row.Status == core.TailNA {
		return 0, fmt.Errorf("%w: %s Week row unavailable", ErrUnfittable, char)
	}
	if row.LLCD.Alpha <= 0 {
		return 0, fmt.Errorf("%w: %s Week alpha %v", ErrUnfittable, char, row.LLCD.Alpha)
	}
	return row.LLCD.Alpha, nil
}

func clamp(v, lo, hi float64) float64 {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
