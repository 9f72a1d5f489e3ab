package stats

import "sort"

// N returns the number of observations underlying the ECDF.
func (e *ECDF) N() int { return len(e.sorted) }

// CDF returns the fraction of observations <= v.
func (e *ECDF) CDF(v float64) float64 {
	// sort.SearchFloat64s returns the first index with sorted[i] >= v; we
	// want the count of values <= v, so search for the first index > v.
	idx := sort.Search(len(e.sorted), func(i int) bool { return e.sorted[i] > v })
	return float64(idx) / float64(len(e.sorted))
}

// CCDF returns the empirical complementary CDF P[X > v].
func (e *ECDF) CCDF(v float64) float64 {
	return 1 - e.CDF(v)
}
