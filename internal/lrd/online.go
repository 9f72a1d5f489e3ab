package lrd

import (
	"fmt"
	"math"

	"fullweb/internal/stats"
)

// OnlineAggVar is the streaming counterpart of
// EstimateAggregatedVariance: it maintains the variance-time statistics
// of a counting series incrementally, folding each new one-second count
// into dyadic aggregation levels m = 1, 2, 4, ..., 2^(L-1). Level j
// accumulates consecutive blocks of 2^j values into block means and
// feeds them to a Welford accumulator, so after n observations the
// estimator holds exactly the population variance of each m-aggregated
// series over its complete blocks — the quantities the variance-time
// regression log Var(X^(m)) ~ (2H-2) log m reads off — in O(L) memory,
// independent of n. Faÿ/Roueff/Soulier (arXiv:math/0509371) show the
// memory parameter of an arrival process is identifiable from exactly
// such aggregated counts.
//
// The estimate differs from the batch estimator only in the aggregation
// grid (dyadic levels versus ~25 log-spaced ones) and block alignment;
// the documented tolerance between the two is |ΔH| <= 0.1 on series the
// batch estimator accepts (DESIGN.md §10).
//
// Not safe for concurrent use; the stream engine feeds it from one
// goroutine.
type OnlineAggVar struct {
	levels []aggLevel
	n      int64
}

// aggLevel tracks one dyadic aggregation level: the partially filled
// current block and the Welford moments of the completed block means.
type aggLevel struct {
	width   int64 // block size m = 2^j
	partial float64
	filled  int64
	// Welford state over completed block means.
	blocks int64
	mean   float64
	m2     float64
}

// DefaultAggVarLevels is the default number of dyadic levels: level 17
// aggregates 2^17 seconds (~36 hours), beyond the coarsest scale a
// one-week trace can support with enough blocks.
const DefaultAggVarLevels = 18

// aggVarMinBlocks is the minimum number of completed blocks a level
// needs before its variance enters the regression — the streaming
// analogue of the batch estimator capping m at n/32.
const aggVarMinBlocks = 32

// NewOnlineAggVar returns a streaming aggregated-variance estimator
// with the given number of dyadic levels (DefaultAggVarLevels when
// maxLevels <= 0; capped at 40).
func NewOnlineAggVar(maxLevels int) (*OnlineAggVar, error) {
	if maxLevels <= 0 {
		maxLevels = DefaultAggVarLevels
	}
	if maxLevels > 40 {
		return nil, fmt.Errorf("%w: %d aggregation levels", ErrBadParam, maxLevels)
	}
	o := &OnlineAggVar{levels: make([]aggLevel, maxLevels)}
	for j := range o.levels {
		o.levels[j].width = 1 << j
	}
	return o, nil
}

// Add folds one observation (the next one-second count) into every
// aggregation level.
func (o *OnlineAggVar) Add(v float64) {
	o.n++
	for j := range o.levels {
		l := &o.levels[j]
		l.partial += v
		l.filled++
		if l.filled == l.width {
			l.complete(l.partial / float64(l.width))
			l.partial = 0
			l.filled = 0
		}
	}
}

// complete folds one finished block mean into the level's Welford
// moments.
func (l *aggLevel) complete(m float64) {
	l.blocks++
	d := m - l.mean
	l.mean += d / float64(l.blocks)
	l.m2 += d * (m - l.mean)
}

// AddZeros folds k consecutive zero observations into every aggregation
// level, bit-identical to calling Add(0) k times. Zeros never move a
// block's partial sum, so the only sequential arithmetic left is the
// Welford fold at each block completion: O(k/width) work per level,
// ~2k operations total across the dyadic levels instead of k*levels.
// Idle gaps in sparse traces are exactly such zero runs, where the
// naive per-second loop would dominate the fold cost (EXPERIMENTS.md,
// sharded-intake collapse).
func (o *OnlineAggVar) AddZeros(k int64) {
	if k <= 0 {
		return
	}
	o.n += k
	for j := range o.levels {
		l := &o.levels[j]
		left := k
		if l.filled > 0 {
			// Finish the in-progress block first: its mean still owes
			// the pre-gap partial sum.
			need := l.width - l.filled
			if left < need {
				l.filled += left
				continue
			}
			left -= need
			l.complete(l.partial / float64(l.width))
			l.partial = 0
			l.filled = 0
		}
		// Every further completed block is all zeros: mean exactly 0,
		// same value Add's partial/width division produces.
		for b := left / l.width; b > 0; b-- {
			l.complete(0)
		}
		l.filled = left % l.width
	}
}

// N returns the number of observations folded in so far.
func (o *OnlineAggVar) N() int64 { return o.n }

// Estimate runs the variance-time regression over the levels that have
// accumulated enough complete blocks and returns the Hurst estimate
// H = 1 + slope/2, exactly as the batch estimator does. It needs at
// least three usable levels (ErrTooShort otherwise) and a non-degenerate
// series (ErrDegenerate). The estimator keeps accumulating afterwards;
// Estimate can be called at every snapshot.
func (o *OnlineAggVar) Estimate() (Estimate, error) {
	var logM, logV []float64
	for j := range o.levels {
		l := &o.levels[j]
		// A level needs at least 2 complete blocks before its variance
		// means anything at all — with one block M2 is identically zero
		// (up to round-off), and log-transforming such a
		// degenerate point would poison the regression. The min-blocks
		// policy below is stricter today, but this invariant must hold
		// even if that policy is tuned down, so it is enforced on its
		// own.
		if l.blocks < 2 {
			continue
		}
		if l.blocks < aggVarMinBlocks {
			continue
		}
		v := l.m2 / float64(l.blocks) // population variance of block means
		if v <= 0 || math.IsNaN(v) {
			continue
		}
		logM = append(logM, math.Log10(float64(l.width)))
		logV = append(logV, math.Log10(v))
	}
	if len(logM) < 3 {
		return Estimate{}, fmt.Errorf("%w: %d usable aggregation levels after %d observations", ErrTooShort, len(logM), o.n)
	}
	fit, err := stats.LinearRegression(logM, logV)
	if err != nil {
		return Estimate{}, ErrDegenerate
	}
	h := 1 + fit.Slope/2
	se := fit.SlopeSE / 2
	return Estimate{
		Method:   AggregatedVariance,
		H:        h,
		StdErr:   se,
		CI95Low:  h - 1.96*se,
		CI95High: h + 1.96*se,
		HasCI:    false, // same convention as the batch estimator
		R2:       fit.R2,
	}, nil
}

// Levels returns how many aggregation levels currently have enough
// complete blocks to contribute to the regression.
func (o *OnlineAggVar) Levels() int {
	n := 0
	for j := range o.levels {
		if o.levels[j].blocks >= aggVarMinBlocks {
			n++
		}
	}
	return n
}
