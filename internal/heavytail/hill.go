package heavytail

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fullweb/internal/stats"
)

// HillPoint is one point of a Hill plot: the tail index estimate using
// the k largest observations.
type HillPoint struct {
	K     int
	Alpha float64
}

// HillResult is the outcome of Hill estimation with stability detection.
type HillResult struct {
	// Plot holds alpha_{k,n} for k = 1 .. Kmax.
	Plot []HillPoint
	// Stable reports whether the plot settles to an approximately
	// constant value; the paper annotates non-stabilizing plots "NS".
	Stable bool
	// Alpha is the estimate over the stable window (mean), valid only
	// when Stable.
	Alpha float64
	// WindowLow and WindowHigh are the k-range of the stable window.
	WindowLow, WindowHigh int
}

// hillPlotInto computes the Hill estimator alpha_{k,n} = 1 / H_{k,n} with
//
//	H_{k,n} = (1/k) sum_{i=1..k} (log X_(i) - log X_(k+1))
//
// for k = 1 .. kMax, where X_(1) >= X_(2) >= ... are the descending order
// statistics. The k = 1 point — the single largest log-spacing — is part
// of the classical plot and is emitted too; it is noisy, but dropping it
// would silently shift every plot read off by one order statistic. kMax
// must still be at least 2 (a one-point plot carries no stability
// information) and is capped at n-1. The sample must be positive; it
// is not modified.
//
// The working copy of x is built in scratch's backing array, which is
// reallocated only when shorter than x (nil allocates). A caller that
// reads off the same sample repeatedly (OnlineHill at every snapshot)
// keeps one scratch instead of cloning the sample each time.
func hillPlotInto(scratch, x []float64, kMax int) ([]HillPoint, error) {
	n := len(x)
	if n < 3 {
		return nil, fmt.Errorf("%w: %d observations", ErrTooFewTail, n)
	}
	if kMax < 2 {
		return nil, fmt.Errorf("%w: kMax %d", ErrBadParam, kMax)
	}
	for _, v := range x {
		if v <= 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: got %v", ErrSupport, v)
		}
	}
	if kMax > n-1 {
		kMax = n - 1
	}
	// Only the kMax+1 largest order statistics enter the plot: select
	// them to the end of a copy and sort just that tail. The selected
	// values are the same multiset a full sort leaves there, so every
	// alpha is bit-identical to the full-sort plot.
	asc := append(scratch[:0], x...)
	tail := n - 1 - kMax
	selectUpper(asc, tail, 2*bits.Len(uint(n)))
	slices.Sort(asc[tail:])
	// logs[i] = log X_(i+1), logged only for the order statistics used.
	logs := make([]float64, kMax+1)
	for i := range logs {
		logs[i] = math.Log(asc[n-1-i])
	}
	out := make([]HillPoint, 0, kMax)
	sumLog := 0.0
	for k := 1; k <= kMax; k++ {
		sumLog += logs[k-1]
		h := sumLog/float64(k) - logs[k]
		if h <= 0 {
			// All k+1 largest values equal; no tail information yet.
			continue
		}
		out = append(out, HillPoint{K: k, Alpha: 1 / h})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("%w: degenerate upper tail", ErrTooFewTail)
	}
	return out, nil
}

// selectUpper is a deterministic introselect: it rearranges a so that
// every value at an index >= k is >= every value below k (a[k] is then
// the k-th smallest, counting from 0). Each round partitions the live
// range around the median of its first, middle and last values (Hoare
// scheme) and keeps the side holding k; after depth rounds the live
// range is sorted outright, bounding adversarial inputs at
// O(n log n).
func selectUpper(a []float64, k, depth int) {
	lo, hi := 0, len(a)-1
	for lo < hi {
		if depth == 0 {
			slices.Sort(a[lo : hi+1])
			return
		}
		depth--
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		pivot := a[mid]
		i, j := lo-1, hi+1
		for {
			for i++; a[i] < pivot; i++ {
			}
			for j--; a[j] > pivot; j-- {
			}
			if i >= j {
				break
			}
			a[i], a[j] = a[j], a[i]
		}
		// a[lo..j] <= pivot <= a[j+1..hi], with both sides non-empty.
		if k <= j {
			hi = j
		} else {
			lo = j + 1
		}
	}
}

// EstimateHill computes the Hill plot over the upper tailFraction of the
// sample and detects stability: the widest suffix window of the plot
// whose values stay within relTol of their window mean. If the window
// spans at least half of the admissible k-range, the estimator is deemed
// stable and Alpha is the window mean — mirroring how the paper reads a
// value off the plot, and "NS" when the plot does not settle.
func EstimateHill(x []float64, tailFraction, relTol float64) (HillResult, error) {
	return estimateHillInto(nil, x, tailFraction, relTol)
}

// estimateHillInto is EstimateHill building the Hill plot's working
// copy of x in scratch (hillPlotInto).
func estimateHillInto(scratch, x []float64, tailFraction, relTol float64) (HillResult, error) {
	if tailFraction <= 0 || tailFraction > 1 || math.IsNaN(tailFraction) {
		return HillResult{}, fmt.Errorf("%w: tail fraction %v", ErrBadParam, tailFraction)
	}
	if relTol <= 0 || math.IsNaN(relTol) {
		return HillResult{}, fmt.Errorf("%w: relative tolerance %v", ErrBadParam, relTol)
	}
	kMax := int(float64(len(x)) * tailFraction)
	if kMax < 10 {
		return HillResult{}, fmt.Errorf("%w: tail fraction %v leaves k_max=%d (need >= 10)", ErrTooFewTail, tailFraction, kMax)
	}
	plot, err := hillPlotInto(scratch, x, kMax)
	if err != nil {
		return HillResult{}, err
	}
	res := HillResult{Plot: plot}
	// Search for the widest suffix [i, end) whose alphas stay within
	// relTol of the suffix mean. A suffix (large k) is where the Hill
	// plot conventionally stabilizes.
	m := len(plot)
	if m < 10 {
		return res, nil
	}
	suffixSum := 0.0
	count := 0
	bestStart := -1
	// Walk backward, maintaining the suffix mean and a running max
	// deviation check; restart the window when a point strays.
	maxA := math.Inf(-1)
	minA := math.Inf(1)
	for i := m - 1; i >= 0; i-- {
		a := plot[i].Alpha
		suffixSum += a
		count++
		if a > maxA {
			maxA = a
		}
		if a < minA {
			minA = a
		}
		mean := suffixSum / float64(count)
		if (maxA-minA)/mean > relTol {
			break
		}
		bestStart = i
	}
	if bestStart < 0 {
		return res, nil
	}
	window := plot[bestStart:]
	if len(window) < m/2 {
		// The plot wanders for most of its range: not stabilized.
		return res, nil
	}
	alphas := make([]float64, len(window))
	for i, p := range window {
		alphas[i] = p.Alpha
	}
	mean, err := stats.Mean(alphas)
	if err != nil {
		return res, fmt.Errorf("heavytail: hill window: %w", err)
	}
	res.Stable = true
	res.Alpha = mean
	res.WindowLow = window[0].K
	res.WindowHigh = window[len(window)-1].K
	return res, nil
}

// DefaultHillTailFraction is the upper-tail fraction used in the paper's
// Figure 12 (14% for the WVU High interval).
const DefaultHillTailFraction = 0.14

// DefaultHillRelTol is the default stability tolerance: the Hill plot
// must stay within this relative band to be read as a constant.
const DefaultHillRelTol = 0.35
