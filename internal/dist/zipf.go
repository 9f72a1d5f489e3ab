package dist

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Zipf is the finite Zipf distribution over ranks 1..N with exponent S:
// P[rank = k] proportional to k^{-S}. Web document popularity is
// classically Zipf-like (Arlitt & Williamson, the paper's reference
// [2]); the workload generator uses it to pick request paths so that
// per-document request counts have a realistic concentration profile.
type Zipf struct {
	N int
	S float64
	// cdf[k] = P[rank <= k+1]; built once for O(log N) sampling.
	cdf []float64
}

// NewZipf returns a Zipf distribution over n ranks with exponent s > 0.
func NewZipf(n int, s float64) (*Zipf, error) {
	if n <= 0 {
		return nil, fmt.Errorf("%w: zipf size %d", ErrParam, n)
	}
	if s <= 0 || math.IsNaN(s) || math.IsInf(s, 0) {
		return nil, fmt.Errorf("%w: zipf exponent %v", ErrParam, s)
	}
	cdf := make([]float64, n)
	sum := 0.0
	for k := 1; k <= n; k++ {
		sum += math.Pow(float64(k), -s)
		cdf[k-1] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Zipf{N: n, S: s, cdf: cdf}, nil
}

// Sample draws one rank in 1..N.
func (z *Zipf) Sample(rng *rand.Rand) int {
	u := rng.Float64()
	return sort.SearchFloat64s(z.cdf, u) + 1
}
