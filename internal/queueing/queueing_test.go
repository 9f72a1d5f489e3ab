package queueing

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"fullweb/internal/dist"
	"fullweb/internal/fgn"
)

func TestMM1Formulas(t *testing.T) {
	q, err := NewMM1(8, 10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(q.Utilization()-0.8) > 1e-12 {
		t.Errorf("rho = %v", q.Utilization())
	}
	if math.Abs(q.MeanQueueLength()-4) > 1e-12 {
		t.Errorf("L = %v, want 4", q.MeanQueueLength())
	}
	// Little's law: the mean time in system is L/lambda = 1/(mu-lambda).
	if w := q.MeanQueueLength() / q.Lambda; math.Abs(w-0.5) > 1e-12 {
		t.Errorf("W = %v, want 0.5", w)
	}
	n, err := q.QueueLengthQuantile(0.99)
	if err != nil {
		t.Fatal(err)
	}
	// P[N <= n] = 1 - 0.8^{n+1} >= 0.99 => n >= 19.6.
	if n != 20 {
		t.Errorf("p99 queue length = %d, want 20", n)
	}
}

func TestMM1Validation(t *testing.T) {
	if _, err := NewMM1(10, 10); !errors.Is(err, ErrUnstable) {
		t.Error("rho = 1 should return ErrUnstable")
	}
	if _, err := NewMM1(-1, 10); !errors.Is(err, ErrBadParam) {
		t.Error("negative lambda should return ErrBadParam")
	}
	q, _ := NewMM1(1, 2)
	if _, err := q.QueueLengthQuantile(1.5); !errors.Is(err, ErrBadParam) {
		t.Error("bad quantile should return ErrBadParam")
	}
}

func TestFluidQueueMatchesMM1Order(t *testing.T) {
	// A fluid queue fed with iid Poisson counts at rho=0.8 should show a
	// modest backlog comparable to the analytic prediction's order of
	// magnitude.
	rng := rand.New(rand.NewSource(1))
	const (
		lambda   = 40.0
		capacity = 50.0
	)
	arrivals := make([]float64, 200000)
	for i := range arrivals {
		k, err := dist.PoissonSample(rng, lambda)
		if err != nil {
			t.Fatal(err)
		}
		arrivals[i] = float64(k)
	}
	res, err := FluidQueue(arrivals, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Utilization-0.8) > 0.02 {
		t.Errorf("utilization %v", res.Utilization)
	}
	if res.MeanBacklog > 5 {
		t.Errorf("Poisson fluid backlog %v unexpectedly deep", res.MeanBacklog)
	}
}

func TestFluidQueueLRDMuchWorseThanPoisson(t *testing.T) {
	// The paper's Section 4.2 point, as a regression test: equal mean
	// rate, equal capacity, LRD arrivals produce far deeper backlogs.
	rng := rand.New(rand.NewSource(2))
	const (
		lambda   = 40.0
		capacity = 50.0
		n        = 1 << 17
	)
	poisson := make([]float64, n)
	for i := range poisson {
		k, err := dist.PoissonSample(rng, lambda)
		if err != nil {
			t.Fatal(err)
		}
		poisson[i] = float64(k)
	}
	noise, err := fgn.Generate(rng, 0.85, n)
	if err != nil {
		t.Fatal(err)
	}
	lrd := make([]float64, n)
	for i := range lrd {
		intensity := lambda * math.Exp(0.5*noise[i]-0.125)
		k, err := dist.PoissonSample(rng, intensity)
		if err != nil {
			t.Fatal(err)
		}
		lrd[i] = float64(k)
	}
	pRes, err := FluidQueue(poisson, capacity)
	if err != nil {
		t.Fatal(err)
	}
	lRes, err := FluidQueue(lrd, capacity)
	if err != nil {
		t.Fatal(err)
	}
	if lRes.P99Backlog < 10*pRes.P99Backlog {
		t.Errorf("LRD p99 backlog %v not >> Poisson %v", lRes.P99Backlog, pRes.P99Backlog)
	}
}

func TestFluidQueueValidation(t *testing.T) {
	if _, err := FluidQueue(nil, 1); !errors.Is(err, ErrBadParam) {
		t.Error("empty series should return ErrBadParam")
	}
	if _, err := FluidQueue([]float64{1}, 0); !errors.Is(err, ErrBadParam) {
		t.Error("zero capacity should return ErrBadParam")
	}
	if _, err := FluidQueue([]float64{1, -2}, 1); !errors.Is(err, ErrBadParam) {
		t.Error("negative arrivals should return ErrBadParam")
	}
}

// Property: backlog statistics are monotone in capacity — more capacity
// never deepens the queue.
func TestFluidQueueCapacityMonotoneProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		arrivals := make([]float64, 500)
		for i := range arrivals {
			arrivals[i] = rng.Float64() * 10
		}
		lo, err1 := FluidQueue(arrivals, 5)
		hi, err2 := FluidQueue(arrivals, 7)
		if err1 != nil || err2 != nil {
			return false
		}
		return hi.MeanBacklog <= lo.MeanBacklog+1e-9 && hi.MaxBacklog <= lo.MaxBacklog+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkQueueModels compares the trace-driven simulation cost against
// the (free) analytic formulas.
func BenchmarkQueueModels(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	arrivals := make([]float64, 1<<16)
	for i := range arrivals {
		k, _ := dist.PoissonSample(rng, 40)
		arrivals[i] = float64(k)
	}
	b.Run("fluid-65536", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := FluidQueue(arrivals, 50); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("mm1-analytic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			q, err := NewMM1(40, 50)
			if err != nil {
				b.Fatal(err)
			}
			_ = q.MeanQueueLength()
		}
	})
}
