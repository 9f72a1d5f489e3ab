// Package lrd implements the long-range dependence machinery of the
// paper: five Hurst exponent estimators (aggregated variance, rescaled
// range, periodogram, Whittle, and Abry-Veitch wavelet), a battery runner
// that applies all of them, and the aggregation sweep H(m) used to
// establish asymptotic second-order self-similarity (Figures 4, 6, 7, 8,
// 9 and 10 of the paper).
//
// The estimators follow Taqqu & Teverovsky (1998) for the time-domain
// methods, Fox & Taqqu / Beran for the Whittle estimator, and Abry &
// Veitch (1998) for the wavelet estimator. Whittle and Abry-Veitch
// additionally provide 95% confidence intervals, matching the paper.
package lrd

import (
	"errors"
	"fmt"
	"math"

	"fullweb/internal/stats"
	"fullweb/internal/timeseries"
)

var (
	// ErrTooShort is returned when the series is too short for the
	// estimator.
	ErrTooShort = errors.New("lrd: series too short")
	// ErrBadParam is returned for invalid estimator parameters.
	ErrBadParam = errors.New("lrd: invalid parameter")
	// ErrDegenerate is returned when the series is degenerate (constant).
	ErrDegenerate = errors.New("lrd: degenerate series")
)

// Method identifies a Hurst exponent estimator.
type Method int

const (
	// AggregatedVariance is the variance-time plot estimator.
	AggregatedVariance Method = iota + 1
	// RS is the rescaled-range estimator.
	RS
	// Periodogram is the low-frequency periodogram regression estimator.
	Periodogram
	// Whittle is the approximate maximum likelihood estimator under an
	// fGn spectral model; it provides confidence intervals.
	Whittle
	// AbryVeitch is the wavelet logscale-diagram estimator; it provides
	// confidence intervals.
	AbryVeitch
)

// String returns the estimator name as used in the paper's figures.
func (m Method) String() string {
	switch m {
	case AggregatedVariance:
		return "Variance"
	case RS:
		return "R/S"
	case Periodogram:
		return "Periodogram"
	case Whittle:
		return "Whittle"
	case AbryVeitch:
		return "Abry-Veitch"
	default:
		return fmt.Sprintf("method(%d)", int(m))
	}
}

// AllMethods lists the five estimators in the paper's order.
func AllMethods() []Method {
	return []Method{AggregatedVariance, RS, Periodogram, Whittle, AbryVeitch}
}

// Estimate is the result of one Hurst exponent estimation.
type Estimate struct {
	Method Method
	H      float64
	// StdErr is the standard error of H where the method provides one
	// (Whittle, Abry-Veitch, and the regression-based methods); zero
	// otherwise.
	StdErr float64
	// CI95Low and CI95High bound the 95% confidence interval when
	// HasCI is true.
	CI95Low  float64
	CI95High float64
	HasCI    bool
	// Detail optionally carries method-specific diagnostics (e.g. the
	// regression R^2).
	R2 float64
}

// logSpacedInts returns up to count distinct integers spaced roughly
// geometrically in [lo, hi].
func logSpacedInts(lo, hi, count int) []int {
	if lo < 1 {
		lo = 1
	}
	if hi < lo || count < 1 {
		return nil
	}
	out := make([]int, 0, count)
	prev := 0
	for i := 0; i < count; i++ {
		f := float64(lo) * math.Pow(float64(hi)/float64(lo), float64(i)/float64(max(count-1, 1)))
		v := int(math.Round(f))
		if v <= prev {
			v = prev + 1
		}
		if v > hi {
			break
		}
		out = append(out, v)
		prev = v
	}
	return out
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// EstimateAggregatedVariance estimates H from the variance-time plot: the
// population variance of the m-aggregated series scales as m^{2H-2}, so
// the slope beta of log Var(X^{(m)}) against log m gives H = 1 + beta/2.
// Aggregation levels are chosen geometrically so that each aggregated
// series retains at least a few dozen blocks.
func EstimateAggregatedVariance(x []float64) (Estimate, error) {
	n := len(x)
	if n < 128 {
		return Estimate{}, fmt.Errorf("%w: aggregated variance needs >= 128 points, got %d", ErrTooShort, n)
	}
	maxM := n / 32
	ms := logSpacedInts(1, maxM, 25)
	logM := make([]float64, 0, len(ms))
	logV := make([]float64, 0, len(ms))
	for _, m := range ms {
		agg, err := timeseries.Aggregate(x, m)
		if err != nil {
			return Estimate{}, fmt.Errorf("lrd: aggregated variance: %w", err)
		}
		v, err := stats.PopulationVariance(agg)
		if err != nil || v <= 0 {
			continue
		}
		logM = append(logM, math.Log10(float64(m)))
		logV = append(logV, math.Log10(v))
	}
	if len(logM) < 3 {
		return Estimate{}, ErrDegenerate
	}
	fit, err := stats.LinearRegression(logM, logV)
	if err != nil {
		if errors.Is(err, stats.ErrConstant) {
			return Estimate{}, ErrDegenerate
		}
		return Estimate{}, fmt.Errorf("lrd: aggregated variance regression: %w", err)
	}
	h := 1 + fit.Slope/2
	se := fit.SlopeSE / 2
	return Estimate{
		Method:   AggregatedVariance,
		H:        h,
		StdErr:   se,
		CI95Low:  h - 1.96*se,
		CI95High: h + 1.96*se,
		HasCI:    false, // regression SE understates uncertainty; per the paper, no CI is reported
		R2:       fit.R2,
	}, nil
}

// EstimateRS estimates H with the classical rescaled-range statistic: for
// block length d, R/S is the range of the cumulative deviations divided
// by the block standard deviation; E[R/S] scales as d^H.
func EstimateRS(x []float64) (Estimate, error) {
	n := len(x)
	if n < 128 {
		return Estimate{}, fmt.Errorf("%w: R/S needs >= 128 points, got %d", ErrTooShort, n)
	}
	ds := logSpacedInts(8, n/4, 20)
	logD := make([]float64, 0, len(ds))
	logRS := make([]float64, 0, len(ds))
	for _, d := range ds {
		blocks := n / d
		sum := 0.0
		used := 0
		for b := 0; b < blocks; b++ {
			seg := x[b*d : (b+1)*d]
			rs, ok := rescaledRange(seg)
			if ok {
				sum += rs
				used++
			}
		}
		if used == 0 {
			continue
		}
		logD = append(logD, math.Log10(float64(d)))
		logRS = append(logRS, math.Log10(sum/float64(used)))
	}
	if len(logD) < 3 {
		return Estimate{}, ErrDegenerate
	}
	fit, err := stats.LinearRegression(logD, logRS)
	if err != nil {
		if errors.Is(err, stats.ErrConstant) {
			return Estimate{}, ErrDegenerate
		}
		return Estimate{}, fmt.Errorf("lrd: R/S regression: %w", err)
	}
	return Estimate{
		Method: RS,
		H:      fit.Slope,
		StdErr: fit.SlopeSE,
		R2:     fit.R2,
	}, nil
}

// rescaledRange computes the R/S statistic of one block. ok is false when
// the block is constant.
func rescaledRange(seg []float64) (float64, bool) {
	m, _ := stats.Mean(seg)
	minC, maxC := 0.0, 0.0
	cum := 0.0
	ss := 0.0
	for _, v := range seg {
		d := v - m
		cum += d
		if cum < minC {
			minC = cum
		}
		if cum > maxC {
			maxC = cum
		}
		ss += d * d
	}
	s := math.Sqrt(ss / float64(len(seg)))
	if s == 0 {
		return 0, false
	}
	return (maxC - minC) / s, true
}
