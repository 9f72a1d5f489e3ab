package dist

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
)

func TestPoissonProcessCount(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	const (
		lambda  = 50.0
		horizon = 1000.0
	)
	times, err := PoissonProcess(rng, lambda, horizon)
	if err != nil {
		t.Fatal(err)
	}
	want := lambda * horizon
	got := float64(len(times))
	// Count is Poisson(50000); 5 sigma band.
	if math.Abs(got-want) > 5*math.Sqrt(want) {
		t.Fatalf("event count %v, want ~%v", got, want)
	}
	if !sort.Float64sAreSorted(times) {
		t.Fatal("event times not sorted")
	}
	for _, tm := range times {
		if tm < 0 || tm >= horizon {
			t.Fatalf("event time %v outside [0, %v)", tm, horizon)
		}
	}
}

func TestPoissonProcessInterArrivalsExponential(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	times, err := PoissonProcess(rng, 10, 10000)
	if err != nil {
		t.Fatal(err)
	}
	// Inter-arrival mean should be ~1/10.
	sum := times[0]
	for i := 1; i < len(times); i++ {
		sum += times[i] - times[i-1]
	}
	mean := sum / float64(len(times))
	if math.Abs(mean-0.1) > 0.005 {
		t.Fatalf("mean inter-arrival %v, want ~0.1", mean)
	}
}

func TestPoissonProcessInvalid(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	if _, err := PoissonProcess(rng, -1, 10); !errors.Is(err, ErrParam) {
		t.Error("negative rate should error")
	}
	if _, err := PoissonProcess(rng, 1, 0); !errors.Is(err, ErrParam) {
		t.Error("zero horizon should error")
	}
}

func TestPoissonSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	for _, mean := range []float64{0.5, 3, 20, 100} {
		n := 20000
		sum := 0.0
		for i := 0; i < n; i++ {
			k, err := PoissonSample(rng, mean)
			if err != nil {
				t.Fatal(err)
			}
			sum += float64(k)
		}
		got := sum / float64(n)
		se := math.Sqrt(mean / float64(n))
		if math.Abs(got-mean) > 6*se+0.01 {
			t.Errorf("mean %v: sample mean %v", mean, got)
		}
	}
}

func TestPoissonSampleEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	k, err := PoissonSample(rng, 0)
	if err != nil || k != 0 {
		t.Fatalf("PoissonSample(0) = %d, %v", k, err)
	}
	if _, err := PoissonSample(rng, -1); !errors.Is(err, ErrParam) {
		t.Error("negative mean should error")
	}
	if _, err := PoissonSample(rng, math.NaN()); !errors.Is(err, ErrParam) {
		t.Error("NaN mean should error")
	}
}
