package dist

import (
	"fmt"
	"math"
	"math/rand"
)

// PoissonProcess generates the event times of a homogeneous Poisson
// process with rate Lambda (events per unit time) over [0, horizon). It is
// the baseline arrival model the paper formally rejects for Web requests.
func PoissonProcess(rng *rand.Rand, lambda, horizon float64) ([]float64, error) {
	if lambda <= 0 || math.IsNaN(lambda) || math.IsInf(lambda, 0) {
		return nil, fmt.Errorf("%w: poisson rate %v", ErrParam, lambda)
	}
	if horizon <= 0 || math.IsNaN(horizon) || math.IsInf(horizon, 0) {
		return nil, fmt.Errorf("%w: poisson horizon %v", ErrParam, horizon)
	}
	times := make([]float64, 0, int(lambda*horizon)+16)
	t := 0.0
	for {
		t += rng.ExpFloat64() / lambda
		if t >= horizon {
			return times, nil
		}
		times = append(times, t)
	}
}

// PoissonSample draws one Poisson(mean) count. For small means it uses
// Knuth's product method; for large means a normal approximation with
// continuity correction, which is adequate for the binned counting series
// this library builds.
func PoissonSample(rng *rand.Rand, mean float64) (int, error) {
	if mean < 0 || math.IsNaN(mean) || math.IsInf(mean, 0) {
		return 0, fmt.Errorf("%w: poisson mean %v", ErrParam, mean)
	}
	if mean == 0 {
		return 0, nil
	}
	if mean < 30 {
		l := math.Exp(-mean)
		k := 0
		p := 1.0
		for {
			p *= rng.Float64()
			if p <= l {
				return k, nil
			}
			k++
		}
	}
	k := int(math.Round(mean + math.Sqrt(mean)*rng.NormFloat64()))
	if k < 0 {
		k = 0
	}
	return k, nil
}
