package lrd

import (
	"context"
	"fmt"
	"math"

	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/timeseries"
)

// Estimator is the common signature of the Hurst estimators.
type Estimator func(x []float64) (Estimate, error)

// EstimatorFor returns the estimator function for a method.
func EstimatorFor(m Method) (Estimator, error) {
	switch m {
	case AggregatedVariance:
		return EstimateAggregatedVariance, nil
	case RS:
		return EstimateRS, nil
	case Periodogram:
		return EstimatePeriodogram, nil
	case Whittle:
		return EstimateWhittle, nil
	case AbryVeitch:
		return EstimateAbryVeitch, nil
	default:
		return nil, fmt.Errorf("%w: method %d", ErrBadParam, int(m))
	}
}

// BatteryResult holds the estimates of all five methods on one series,
// as plotted in Figures 4, 6, 9 and 10 of the paper.
type BatteryResult struct {
	Estimates []Estimate
}

// ByMethod returns the estimate for a method and whether it was computed.
func (b *BatteryResult) ByMethod(m Method) (Estimate, bool) {
	for _, e := range b.Estimates {
		if e.Method == m {
			return e, true
		}
	}
	return Estimate{}, false
}

// RunBatteryCtx applies all five Hurst estimators to x, fanned out on a
// worker pool (nil means sequential). Estimators that fail on this
// particular series (too short, degenerate) are skipped; the error is
// non-nil only when every estimator fails. Non-finite values in the
// input are rejected up front — a NaN would otherwise silently poison
// every spectral statistic. Each estimator is independent and
// deterministic, and the estimates are collected in method order, so the
// result is identical to the sequential run at any pool size. The
// context aborts estimators not yet started when a sibling analysis
// fails.
func RunBatteryCtx(ctx context.Context, x []float64, pool *parallel.Pool) (*BatteryResult, error) {
	ctx, bsp := obs.StartSpan(ctx, "lrd.battery")
	bsp.SetInt("n", int64(len(x)))
	defer bsp.End()
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%w: non-finite value %v at index %d", ErrBadParam, v, i)
		}
	}
	methods := AllMethods()
	type outcome struct {
		est Estimate
		err error
	}
	if pool == nil {
		pool = parallel.NewPool(1)
	}
	// Estimator failures on a particular series are expected (too short,
	// degenerate) and must not cancel siblings, so they are recorded in
	// the per-method outcome rather than returned from the task.
	outcomes, err := parallel.Map(ctx, pool, len(methods), func(ctx context.Context, i int) (outcome, error) {
		est, err := EstimatorFor(methods[i])
		if err != nil {
			return outcome{}, err
		}
		_, esp := obs.StartSpan(ctx, "lrd.estimate")
		esp.SetAttr("method", methods[i].String())
		e, err := est(x)
		esp.End()
		return outcome{est: e, err: err}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &BatteryResult{}
	var firstErr error
	for i, o := range outcomes {
		if o.err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("lrd: %v: %w", methods[i], o.err)
			}
			continue
		}
		res.Estimates = append(res.Estimates, o.est)
	}
	if len(res.Estimates) == 0 {
		return nil, firstErr
	}
	return res, nil
}

// SweepPoint is one point of an aggregation sweep: the estimate on the
// m-aggregated series.
type SweepPoint struct {
	M        int
	Estimate Estimate
	// Blocks is the length of the aggregated series the estimate used.
	Blocks int
}

// AggregationSweep applies one estimator to the m-aggregated series
// X^{(m)} for each aggregation level in ms (Figures 7 and 8 of the
// paper). Levels for which the aggregated series is too short for the
// estimator are skipped. The mathematical definition of long-range
// dependence being asymptotic, a roughly constant H(m) across levels is
// the evidence the paper looks for.
func AggregationSweep(x []float64, method Method, ms []int) ([]SweepPoint, error) {
	return AggregationSweepCtx(context.Background(), x, method, ms)
}

// AggregationSweepCtx is AggregationSweep under a context carrying
// observability state: the sweep runs inside an lrd.sweep span with one
// lrd.sweep.level child per aggregation level. The estimates are
// identical to AggregationSweep — instrumentation never changes what is
// computed.
func AggregationSweepCtx(ctx context.Context, x []float64, method Method, ms []int) ([]SweepPoint, error) {
	ctx, ssp := obs.StartSpan(ctx, "lrd.sweep")
	ssp.SetAttr("method", method.String())
	ssp.SetInt("levels", int64(len(ms)))
	defer ssp.End()
	est, err := EstimatorFor(method)
	if err != nil {
		return nil, err
	}
	if len(ms) == 0 {
		return nil, fmt.Errorf("%w: empty aggregation level list", ErrBadParam)
	}
	out := make([]SweepPoint, 0, len(ms))
	for _, m := range ms {
		agg, err := timeseries.Aggregate(x, m)
		if err != nil {
			continue
		}
		_, lsp := obs.StartSpan(ctx, "lrd.sweep.level")
		lsp.SetInt("m", int64(m))
		e, err := est(agg)
		lsp.End()
		if err != nil {
			continue
		}
		out = append(out, SweepPoint{M: m, Estimate: e, Blocks: len(agg)})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: no aggregation level produced an estimate", ErrTooShort)
	}
	return out, nil
}

// DefaultSweepLevels returns the aggregation levels used for the paper's
// Figures 7 and 8, capped so the aggregated series keeps at least
// minBlocks blocks.
func DefaultSweepLevels(n, minBlocks int) []int {
	candidates := []int{1, 2, 5, 10, 20, 50, 100, 200, 300, 400, 500, 600}
	out := make([]int, 0, len(candidates))
	for _, m := range candidates {
		if minBlocks > 0 && n/m < minBlocks {
			break
		}
		out = append(out, m)
	}
	return out
}
