package timeseries

import (
	"fmt"
	"math"

	"fullweb/internal/stats"
)

// KPSSType selects the null hypothesis of the KPSS test.
type KPSSType int

const (
	// KPSSLevel tests stationarity around a constant level.
	KPSSLevel KPSSType = iota + 1
	// KPSSTrend tests stationarity around a deterministic linear trend.
	KPSSTrend
)

// KPSSResult holds the outcome of a Kwiatkowski-Phillips-Schmidt-Shin
// stationarity test.
type KPSSResult struct {
	Type      KPSSType
	Statistic float64
	// Bandwidth is the Newey-West lag truncation used for the long-run
	// variance.
	Bandwidth int
	// CriticalValues at the 10%, 5%, 2.5% and 1% levels.
	CriticalValues map[float64]float64
	// Stationary reports whether the null of stationarity is NOT rejected
	// at the 5% level.
	Stationary bool
}

// kpssCritical holds the asymptotic critical values from Kwiatkowski et
// al. (1992), Table 1.
var kpssCritical = map[KPSSType]map[float64]float64{
	KPSSLevel: {0.10: 0.347, 0.05: 0.463, 0.025: 0.574, 0.01: 0.739},
	KPSSTrend: {0.10: 0.119, 0.05: 0.146, 0.025: 0.176, 0.01: 0.216},
}

// KPSS runs the KPSS test on x. The null hypothesis is stationarity
// (around a level or a trend, per typ); large statistics reject it. The
// long-run variance uses the Bartlett kernel with the data-dependent
// bandwidth floor(12 * (n/100)^{1/4}) of the original paper.
func KPSS(x []float64, typ KPSSType) (KPSSResult, error) {
	n := len(x)
	if n < 12 {
		return KPSSResult{}, fmt.Errorf("%w: KPSS needs >= 12 observations, got %d", ErrTooShort, n)
	}
	crit, ok := kpssCritical[typ]
	if !ok {
		return KPSSResult{}, fmt.Errorf("%w: KPSS type %d", ErrBadParam, int(typ))
	}
	// Residuals under the null.
	resid := make([]float64, n)
	switch typ {
	case KPSSLevel:
		m, err := stats.Mean(x)
		if err != nil {
			return KPSSResult{}, fmt.Errorf("timeseries: KPSS: %w", err)
		}
		for i, v := range x {
			resid[i] = v - m
		}
	case KPSSTrend:
		detrended, _, err := Detrend(x)
		if err != nil {
			return KPSSResult{}, fmt.Errorf("timeseries: KPSS: %w", err)
		}
		copy(resid, detrended)
	}
	// Partial sums.
	partial := make([]float64, n)
	sum := 0.0
	for i, e := range resid {
		sum += e
		partial[i] = sum
	}
	num := 0.0
	for _, s := range partial {
		num += s * s
	}
	num /= float64(n) * float64(n)
	// Newey-West long-run variance with Bartlett kernel.
	bandwidth := int(math.Floor(12 * math.Pow(float64(n)/100, 0.25)))
	if bandwidth >= n {
		bandwidth = n - 1
	}
	lrv := 0.0
	for _, e := range resid {
		lrv += e * e
	}
	lrv /= float64(n)
	for lag := 1; lag <= bandwidth; lag++ {
		gamma := 0.0
		for t := lag; t < n; t++ {
			gamma += resid[t] * resid[t-lag]
		}
		gamma /= float64(n)
		weight := 1 - float64(lag)/float64(bandwidth+1)
		lrv += 2 * weight * gamma
	}
	if lrv <= 0 {
		return KPSSResult{}, fmt.Errorf("timeseries: KPSS long-run variance %v not positive (constant series?)", lrv)
	}
	stat := num / lrv
	cvCopy := make(map[float64]float64, len(crit))
	for k, v := range crit {
		cvCopy[k] = v
	}
	return KPSSResult{
		Type:           typ,
		Statistic:      stat,
		Bandwidth:      bandwidth,
		CriticalValues: cvCopy,
		Stationary:     stat < crit[0.05],
	}, nil
}
