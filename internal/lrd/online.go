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

// Merge folds another estimator's dyadic levels into o, pairwise by
// level: the Welford moments of the completed block means combine with
// Chan's parallel merge, the observation counts add, and — the
// documented tail rule — the operand's partially filled tail block at
// every level is discarded (the receiver keeps its own partial). Both
// estimators must have the same number of levels.
//
// Two merge semantics share this one operation. Merging estimators fed
// consecutive segments of ONE series approximates the whole-series
// estimator: at levels where the segment lengths are multiples of the
// block width the block means are identical and the merge is exact up
// to floating-point association; elsewhere blocks realign and at most
// one partial block per level per operand is lost (tolerance in
// DESIGN.md §12). Merging estimators fed DIFFERENT series (say, two
// servers' arrival processes) pools their block-mean populations — a
// per-partition aggregate view like the one the Rolls (2010)
// reduced-LRD comparison reads against the summed-series estimate, not
// a substitute for it. The merge is associative and commutative up to
// floating-point association, minus the discarded partials.
func (o *OnlineAggVar) Merge(other *OnlineAggVar) error {
	if len(o.levels) != len(other.levels) {
		return fmt.Errorf("%w: merging aggregated-variance estimators with %d and %d levels",
			ErrBadParam, len(o.levels), len(other.levels))
	}
	o.n += other.n
	for j := range o.levels {
		a, b := &o.levels[j], &other.levels[j]
		if b.blocks == 0 {
			continue
		}
		n := a.blocks + b.blocks
		d := b.mean - a.mean
		a.mean += d * float64(b.blocks) / float64(n)
		a.m2 += b.m2 + d*d*float64(a.blocks)*float64(b.blocks)/float64(n)
		a.blocks = n
	}
	return nil
}

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
		// (or pure merge round-off), and log-transforming such a
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
