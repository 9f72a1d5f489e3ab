package dist

// PMF returns P[rank = k] for k in 1..N.
func (z *Zipf) PMF(k int) float64 {
	if k < 1 || k > z.N {
		return 0
	}
	if k == 1 {
		return z.cdf[0]
	}
	return z.cdf[k-1] - z.cdf[k-2]
}
