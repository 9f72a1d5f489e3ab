// Package queueing provides the performance models the paper's Section
// 4.2 criticizes — analytic M/M/1 and M/M/c queues built on the Poisson
// arrival assumption — together with a trace-driven fluid queue that
// replays arbitrary arrival series. Feeding both with the same mean rate
// quantifies how badly the Poisson assumption underestimates backlog
// under long-range dependent Web arrivals (see examples/capacity and the
// package benchmarks).
package queueing

import (
	"errors"
	"fmt"
	"math"

	"fullweb/internal/stats"
)

var (
	// ErrUnstable is returned when the offered load is at or above
	// capacity (utilization >= 1) for an analytic model.
	ErrUnstable = errors.New("queueing: utilization >= 1")
	// ErrBadParam is returned for invalid model parameters.
	ErrBadParam = errors.New("queueing: invalid parameter")
)

// MM1 is the M/M/1 queue: Poisson arrivals at rate Lambda, exponential
// service at rate Mu.
type MM1 struct {
	Lambda, Mu float64
}

// NewMM1 validates and returns an M/M/1 model.
func NewMM1(lambda, mu float64) (MM1, error) {
	if lambda <= 0 || mu <= 0 || math.IsNaN(lambda) || math.IsNaN(mu) {
		return MM1{}, fmt.Errorf("%w: lambda=%v mu=%v", ErrBadParam, lambda, mu)
	}
	if lambda >= mu {
		return MM1{}, fmt.Errorf("%w: rho=%v", ErrUnstable, lambda/mu)
	}
	return MM1{Lambda: lambda, Mu: mu}, nil
}

// Utilization returns rho = lambda/mu.
func (q MM1) Utilization() float64 { return q.Lambda / q.Mu }

// MeanQueueLength returns the mean number in system, rho/(1-rho).
func (q MM1) MeanQueueLength() float64 {
	rho := q.Utilization()
	return rho / (1 - rho)
}

// QueueLengthQuantile returns the p-quantile of the number in system
// (geometric distribution).
func (q MM1) QueueLengthQuantile(p float64) (int, error) {
	if p <= 0 || p >= 1 || math.IsNaN(p) {
		return 0, fmt.Errorf("%w: quantile probability %v", ErrBadParam, p)
	}
	rho := q.Utilization()
	// P[N <= n] = 1 - rho^{n+1}.
	n := math.Log(1-p)/math.Log(rho) - 1
	if n < 0 {
		return 0, nil
	}
	return int(math.Ceil(n)), nil
}

// FluidResult summarizes a trace-driven fluid-queue run.
type FluidResult struct {
	// MeanBacklog, P99Backlog and MaxBacklog describe the backlog series
	// (work units queued at each step).
	MeanBacklog float64
	P99Backlog  float64
	MaxBacklog  float64
	// BusyFraction is the fraction of steps with nonzero backlog.
	BusyFraction float64
	// Utilization is offered work divided by capacity over the run.
	Utilization float64
}

// FluidQueue replays a per-step arrival (work) series through a
// constant-capacity fluid queue: backlog_{t+1} = max(0, backlog_t +
// arrivals_t - capacity). It is distribution-free — this is how the
// library evaluates queueing behavior under measured or synthetic LRD
// arrival series where no analytic model applies.
func FluidQueue(arrivals []float64, capacity float64) (FluidResult, error) {
	if len(arrivals) == 0 {
		return FluidResult{}, fmt.Errorf("%w: empty arrival series", ErrBadParam)
	}
	if capacity <= 0 || math.IsNaN(capacity) {
		return FluidResult{}, fmt.Errorf("%w: capacity %v", ErrBadParam, capacity)
	}
	backlog := make([]float64, len(arrivals))
	q := 0.0
	busy := 0
	offered := 0.0
	for i, a := range arrivals {
		if a < 0 || math.IsNaN(a) {
			return FluidResult{}, fmt.Errorf("%w: arrival %v at step %d", ErrBadParam, a, i)
		}
		offered += a
		q = math.Max(0, q+a-capacity)
		backlog[i] = q
		if q > 0 {
			busy++
		}
	}
	mean, _ := stats.Mean(backlog)
	p99, err := stats.Quantile(backlog, 0.99)
	if err != nil {
		return FluidResult{}, fmt.Errorf("queueing: fluid backlog quantile: %w", err)
	}
	_, max, _ := stats.MinMax(backlog)
	return FluidResult{
		MeanBacklog:  mean,
		P99Backlog:   p99,
		MaxBacklog:   max,
		BusyFraction: float64(busy) / float64(len(arrivals)),
		Utilization:  offered / (capacity * float64(len(arrivals))),
	}, nil
}
