package stats

import (
	"math"
	"sort"
)

// ECDF is an empirical cumulative distribution function built from a
// sample. The zero value is not usable; construct with NewECDF.
type ECDF struct {
	sorted []float64
}

// NewECDF builds an empirical CDF from x. The input is copied and sorted;
// x itself is not modified.
func NewECDF(x []float64) (*ECDF, error) {
	if len(x) == 0 {
		return nil, ErrEmpty
	}
	sorted := make([]float64, len(x))
	copy(sorted, x)
	sort.Float64s(sorted)
	return &ECDF{sorted: sorted}, nil
}

// LLCDPoint is one point of a log-log complementary distribution plot.
type LLCDPoint struct {
	LogX    float64 // log10 of the value
	LogCCDF float64 // log10 of P[X > x]
}

// LLCD returns the log-log complementary distribution plot points of the
// sample: for each distinct positive value x (excluding the maximum, where
// the empirical CCDF is zero), the pair (log10 x, log10 P[X > x]).
// Non-positive observations are skipped since they have no logarithm; the
// paper's intra-session characteristics are all positive.
func (e *ECDF) LLCD() []LLCDPoint {
	n := len(e.sorted)
	points := make([]LLCDPoint, 0, n)
	for i := 0; i < n; {
		v := e.sorted[i]
		j := i
		for j < n && e.sorted[j] == v {
			j++
		}
		// P[X > v] = (n - j) / n using the count of values strictly above v.
		ccdf := float64(n-j) / float64(n)
		if v > 0 && ccdf > 0 {
			points = append(points, LLCDPoint{
				LogX:    math.Log10(v),
				LogCCDF: math.Log10(ccdf),
			})
		}
		i = j
	}
	return points
}
