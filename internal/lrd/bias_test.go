package lrd

import (
	"math"
	"testing"
)

// TestEstimatorBiasSweep is the robustness study: across the Hurst grid
// the paper's range of interest covers (0.55 to 0.95), each estimator's
// average error over replications of exact fGn must stay within a
// method-appropriate bound. This is the evidence behind trusting the
// measured Figures 4/6/9/10 values.
func TestEstimatorBiasSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("bias sweep is slow")
	}
	const (
		n    = 1 << 13
		reps = 3
	)
	bounds := map[Method]float64{
		AggregatedVariance: 0.12,
		RS:                 0.15,
		Periodogram:        0.12,
		Whittle:            0.05,
		AbryVeitch:         0.10,
	}
	for _, h := range []float64{0.55, 0.65, 0.75, 0.85, 0.95} {
		for _, m := range AllMethods() {
			est, err := EstimatorFor(m)
			if err != nil {
				t.Fatal(err)
			}
			sum := 0.0
			for r := 0; r < reps; r++ {
				x := groundTruth(t, h, n, int64(1000+r)+int64(h*100))
				e, err := est(x)
				if err != nil {
					t.Fatalf("%v at H=%v: %v", m, h, err)
				}
				sum += e.H
			}
			bias := sum/reps - h
			if math.Abs(bias) > bounds[m] {
				t.Errorf("%v at H=%v: mean bias %+.3f exceeds %.3f", m, h, bias, bounds[m])
			}
		}
	}
}
