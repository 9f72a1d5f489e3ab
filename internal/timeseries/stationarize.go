package timeseries

import (
	"fmt"
)

// SeasonalMethod selects how a detected periodic component is removed.
type SeasonalMethod int

const (
	// SeasonalDifferencing removes the seasonal component with lag-s
	// differencing, the Box-Jenkins method cited by the paper. It shortens
	// the series by one period.
	SeasonalDifferencing SeasonalMethod = iota + 1
	// SeasonalMeans removes the per-phase means, preserving series length.
	SeasonalMeans
)

// StationarizeConfig controls the stationarizing pipeline.
type StationarizeConfig struct {
	// MinPeriod and MaxPeriod bound the periodogram search for a seasonal
	// component, in sample units. A typical request-per-second series with
	// a diurnal cycle uses [3600, 172800] to bracket 86400 s.
	MinPeriod int
	MaxPeriod int
	// SNRThreshold is the minimum peak-to-median periodogram ratio for a
	// period to count as a real seasonal component. The diurnal peak in
	// the paper's traffic dwarfs the background; 50 is a conservative
	// default.
	SNRThreshold float64
	// Method selects the seasonal removal device.
	Method SeasonalMethod
	// MaxComponents bounds how many distinct periodic components the
	// pipeline may remove (real logs often carry a weekly cycle on top
	// of the daily one); 0 means 1, matching the paper's single
	// 24-hour removal.
	MaxComponents int
}

// DefaultStationarizeConfig returns the configuration used for the
// paper's one-week, one-second-resolution series: search for periods
// between one hour and two days, require a strong peak, and remove the
// component by differencing as the paper does.
func DefaultStationarizeConfig() StationarizeConfig {
	return StationarizeConfig{
		MinPeriod:    3600,
		MaxPeriod:    172800,
		SNRThreshold: 50,
		Method:       SeasonalDifferencing,
	}
}

// StationarizeResult records what the pipeline did to the series.
type StationarizeResult struct {
	// Series is the final (stationarized) series.
	Series []float64
	// InitialKPSS and FinalKPSS are the stationarity tests before and
	// after processing. If the input is already stationary, FinalKPSS
	// equals InitialKPSS and no processing is applied.
	InitialKPSS KPSSResult
	FinalKPSS   KPSSResult
	// TrendRemoved reports whether a linear trend was subtracted, and
	// Trend the fitted coefficients.
	TrendRemoved bool
	Trend        TrendFit
	// PeriodRemoved reports whether a seasonal component was removed,
	// Period the last removed length in samples, and PeriodSNR the
	// periodogram peak-to-median ratio that triggered that removal.
	// PeriodsRemoved lists every removed component in removal order
	// (more than one only when Config.MaxComponents allows it).
	PeriodRemoved  bool
	Period         int
	PeriodSNR      float64
	PeriodsRemoved []int
	Method         SeasonalMethod
}

// Stationarize applies the paper's procedure to a counting series: test
// stationarity with KPSS; if the null is rejected, remove the
// least-squares linear trend, detect the dominant periodicity with the
// periodogram and remove it, then re-test. The input series is not
// modified.
//
// The paper reports that all four request series (and three of four
// session series) were non-stationary with a slight trend and a 24-hour
// period, and that the processed series pass the KPSS test.
func Stationarize(x []float64, cfg StationarizeConfig) (*StationarizeResult, error) {
	if cfg.MinPeriod < 2 || cfg.MaxPeriod < cfg.MinPeriod {
		return nil, fmt.Errorf("%w: period band [%d, %d]", ErrBadParam, cfg.MinPeriod, cfg.MaxPeriod)
	}
	if cfg.Method != SeasonalDifferencing && cfg.Method != SeasonalMeans {
		return nil, fmt.Errorf("%w: seasonal method %d", ErrBadParam, int(cfg.Method))
	}
	initial, err := KPSS(x, KPSSLevel)
	if err != nil {
		return nil, fmt.Errorf("timeseries: stationarize: %w", err)
	}
	res := &StationarizeResult{
		InitialKPSS: initial,
		FinalKPSS:   initial,
		Method:      cfg.Method,
	}
	if initial.Stationary {
		out := make([]float64, len(x))
		copy(out, x)
		res.Series = out
		return res, nil
	}
	// Remove the linear trend.
	work, trend, err := Detrend(x)
	if err != nil {
		return nil, fmt.Errorf("timeseries: stationarize: %w", err)
	}
	res.TrendRemoved = true
	res.Trend = trend
	// Look for periodic components; the series may be too short to
	// resolve the band, in which case seasonal removal is skipped. Up to
	// MaxComponents distinct periods are removed (e.g. daily then
	// weekly), stopping early once no strong peak remains.
	maxComponents := cfg.MaxComponents
	if maxComponents <= 0 {
		maxComponents = 1
	}
	for comp := 0; comp < maxComponents && len(work) >= 2*cfg.MaxPeriod; comp++ {
		period, snr, err := DominantPeriod(work, cfg.MinPeriod, cfg.MaxPeriod)
		if err != nil || snr < cfg.SNRThreshold {
			break
		}
		if res.PeriodRemoved && period == res.Period {
			// The same period still dominating means removal stalled;
			// avoid differencing the series away entirely.
			break
		}
		switch cfg.Method {
		case SeasonalDifferencing:
			work, err = SeasonalDifference(work, period)
		case SeasonalMeans:
			work, _, err = SubtractSeasonalMeans(work, period)
			if err == nil {
				// A strong periodic component biases the initial trend
				// fit (t and sin are not orthogonal over the sample), so
				// a residual linear trend can survive seasonal-mean
				// removal. Differencing annihilates it implicitly; here
				// we refit and remove it explicitly.
				work, _, err = Detrend(work)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("timeseries: stationarize: removing period %d: %w", period, err)
		}
		res.PeriodRemoved = true
		res.Period = period
		res.PeriodSNR = snr
		res.PeriodsRemoved = append(res.PeriodsRemoved, period)
	}
	final, err := KPSS(work, KPSSLevel)
	if err != nil {
		return nil, fmt.Errorf("timeseries: stationarize: %w", err)
	}
	res.FinalKPSS = final
	res.Series = work
	return res, nil
}
