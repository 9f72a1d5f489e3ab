// Capacity-planning example: why Section 4.2's rejection of Poisson
// arrivals matters.
//
// The paper notes that Web performance models built on queueing networks
// assume Poisson request arrivals and "most likely provide misleading
// results". This example sizes a server with the analytic M/M/1 model,
// then feeds the internal/queueing fluid queue with two arrival
// processes of identical mean rate — homogeneous Poisson, and a
// long-range dependent process (fGn-modulated, H=0.85, as measured on
// the stationary request series) — and compares what actually happens
// at the same utilization.
//
//	go run ./examples/capacity
package main

import (
	"fmt"
	"io"
	"log"
	"math"
	"math/rand"
	"os"

	"fullweb/internal/dist"
	"fullweb/internal/fgn"
	"fullweb/internal/queueing"
	"fullweb/internal/report"
)

const (
	meanRate    = 50.0    // requests per second
	utilization = 0.8     // server sized for rho = 0.8
	horizon     = 1 << 19 // seconds simulated (~6 days)
	hurst       = 0.85
	seed        = 11
)

func main() {
	if err := run(os.Stdout); err != nil {
		log.SetFlags(0)
		log.Fatal("capacity: ", err)
	}
}

func poissonCounts(rng *rand.Rand, n int) ([]float64, error) {
	out := make([]float64, n)
	for i := range out {
		k, err := dist.PoissonSample(rng, meanRate)
		if err != nil {
			return nil, err
		}
		out[i] = float64(k)
	}
	return out, nil
}

// lrdCounts builds a doubly stochastic Poisson series whose intensity is
// lognormal-fGn modulated — the arrival structure the paper measured.
func lrdCounts(rng *rand.Rand, n int) ([]float64, error) {
	noise, err := fgn.Generate(rng, hurst, n)
	if err != nil {
		return nil, err
	}
	const sigma = 0.5
	out := make([]float64, n)
	for i := range out {
		intensity := meanRate * math.Exp(sigma*noise[i]-sigma*sigma/2)
		k, err := dist.PoissonSample(rng, intensity)
		if err != nil {
			return nil, err
		}
		out[i] = float64(k)
	}
	return out, nil
}

func run(w io.Writer) error {
	serviceRate := meanRate / utilization
	// What the analytic Poisson model promises at this utilization.
	mm1, err := queueing.NewMM1(meanRate, serviceRate)
	if err != nil {
		return err
	}
	p99, err := mm1.QueueLengthQuantile(0.99)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fluid queue: service=%.0f req/s, target utilization=%.0f%%, horizon=%s s\n",
		serviceRate, utilization*100, report.Count(int64(horizon)))
	fmt.Fprintf(w, "analytic M/M/1 promise: mean queue %.1f, p99 queue %d\n\n",
		mm1.MeanQueueLength(), p99)

	rng := rand.New(rand.NewSource(seed))
	poisson, err := poissonCounts(rng, horizon)
	if err != nil {
		return err
	}
	lrd, err := lrdCounts(rng, horizon)
	if err != nil {
		return err
	}

	tb := report.NewTable("arrival process", "utilization", "backlog mean", "backlog p99", "backlog max", "busy fraction")
	for _, c := range []struct {
		label  string
		counts []float64
	}{
		{"Poisson (queueing-model assumption)", poisson},
		{fmt.Sprintf("LRD, H=%.2f (measured shape)", hurst), lrd},
	} {
		res, err := queueing.FluidQueue(c.counts, serviceRate)
		if err != nil {
			return err
		}
		tb.AddRow(c.label, report.F2(res.Utilization), report.F2(res.MeanBacklog),
			report.F2(res.P99Backlog), report.F2(res.MaxBacklog), report.F2(res.BusyFraction))
	}
	fmt.Fprint(w, tb.String())
	fmt.Fprintln(w, "\nreading: at the same utilization the LRD arrivals build backlogs orders of")
	fmt.Fprintln(w, "magnitude deeper than the Poisson model predicts — the 'misleading results'")
	fmt.Fprintln(w, "the paper warns about in Section 4.2.")
	return nil
}
