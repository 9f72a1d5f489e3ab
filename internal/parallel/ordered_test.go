package parallel

import (
	"context"
	"errors"
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
)

// produceN yields 0..n-1, returning early when the pipeline is
// abandoned.
func produceN(n int) func(ctx context.Context, yield func(int) bool) error {
	return func(ctx context.Context, yield func(int) bool) error {
		for i := 0; i < n; i++ {
			if !yield(i) {
				return nil
			}
		}
		return nil
	}
}

// square is the test pipeline's work: i*i after a pseudo-random delay
// of up to 200µs, so items finish out of order.
func square(seed int64) func(ctx context.Context, i int) (int, error) {
	return func(ctx context.Context, i int) (int, error) {
		d := time.Duration(rand.New(rand.NewSource(seed+int64(i))).Intn(200)) * time.Microsecond
		time.Sleep(d)
		return i * i, nil
	}
}

// settledGoroutines waits (up to a second) for the goroutine count to
// fall back to base — a goroutine that has signalled its join may still
// be unwinding — and returns the last count seen.
func settledGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestOrderedEmitsInProductionOrder: under random work delays, every
// pool size and window emits exactly the produced sequence, each item
// worked once, with the pool's books balanced and no goroutine left
// afterwards.
func TestOrderedEmitsInProductionOrder(t *testing.T) {
	const n = 200
	for _, workers := range []int{1, 2, 4} {
		for _, window := range []int{0, 1, 3, 8} {
			base := runtime.NumGoroutine()
			p := NewPool(workers)
			reg := obs.NewRegistry()
			p.Instrument(reg)
			var got []int
			err := Ordered(context.Background(), p, window, produceN(n), square(int64(workers*10+window)), func(v int) error {
				got = append(got, v)
				return nil
			})
			if err != nil {
				t.Fatalf("pool %d window %d: %v", workers, window, err)
			}
			if len(got) != n {
				t.Fatalf("pool %d window %d: emitted %d items, want %d", workers, window, len(got), n)
			}
			for i, v := range got {
				if v != i*i {
					t.Fatalf("pool %d window %d: item %d is %d, want %d", workers, window, i, v, i*i)
				}
			}
			runs := reg.Counter("pool.worker_runs").Value() + reg.Counter("pool.inline_runs").Value()
			if runs != n {
				t.Errorf("pool %d window %d: %d worker + inline runs, want %d", workers, window, runs, n)
			}
			if occ := reg.Gauge("pool.occupancy"); occ.Value() != 0 || occ.Max() > int64(workers) {
				t.Errorf("pool %d window %d: occupancy %d (max %d) after return", workers, window, occ.Value(), occ.Max())
			}
			if g := settledGoroutines(base); g > base {
				t.Errorf("pool %d window %d: %d goroutines after return, %d before", workers, window, g, base)
			}
		}
	}
}

// TestOrderedWindowBound: no more than window items are ever between
// the start of their production and the return of their emit, and a
// slow emit fills the window.
func TestOrderedWindowBound(t *testing.T) {
	for _, window := range []int{1, 2, 5} {
		const n = 50
		var inFlight, peak, started atomic.Int64
		produce := func(ctx context.Context, yield func(int) bool) error {
			for i := 0; i < n; i++ {
				started.Add(1)
				v := inFlight.Add(1)
				for m := peak.Load(); v > m && !peak.CompareAndSwap(m, v); m = peak.Load() {
				}
				if !yield(i) {
					return nil
				}
			}
			return nil
		}
		emit := func(int) error {
			// Let the producer and workers run ahead as far as the window
			// allows before this item leaves it.
			deadline := time.Now().Add(time.Second)
			for inFlight.Load() < int64(window) && started.Load() < n && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			inFlight.Add(-1)
			return nil
		}
		if err := Ordered(context.Background(), NewPool(3), window, produce, square(1), emit); err != nil {
			t.Fatal(err)
		}
		if got := peak.Load(); got != int64(window) {
			t.Errorf("window %d: peak in flight %d", window, got)
		}
	}
}

// TestOrderedErrorsInOrder: every error path delivers the items before
// the failure, in order, then the error — and leaves no goroutine
// behind.
func TestOrderedErrorsInOrder(t *testing.T) {
	boom := errors.New("boom")
	const failAt = 37
	cases := []struct {
		name    string
		ctx     func() (context.Context, context.CancelFunc)
		produce func(ctx context.Context, yield func(int) bool) error
		work    func(ctx context.Context, i int) (int, error)
		// failEmit fails emit at failAt; cancel cancels ctx inside emit
		// at failAt.
		failEmit, cancel bool
		// want is the error to return; an injected fault when nil.
		want error
		// emitted is the number of items emitted before the error; -1
		// when it depends on scheduling.
		emitted int
	}{
		{name: "producer error", want: boom, emitted: failAt,
			produce: func(ctx context.Context, yield func(int) bool) error {
				for i := 0; i < failAt; i++ {
					if !yield(i) {
						return nil
					}
				}
				return boom
			}},
		{name: "work error", want: boom, emitted: failAt,
			work: func(ctx context.Context, i int) (int, error) {
				if i == failAt {
					return 0, boom
				}
				return square(2)(ctx, i)
			}},
		{name: "emit error", failEmit: true, want: boom, emitted: failAt + 1},
		{name: "cancel", cancel: true, want: context.Canceled, emitted: failAt + 1},
		{name: "producer blocked on input when emit fails", failEmit: true, want: boom, emitted: failAt + 1,
			produce: func(ctx context.Context, yield func(int) bool) error {
				for i := 0; i <= failAt; i++ {
					if !yield(i) {
						return nil
					}
				}
				<-ctx.Done() // a read that waits for input until woken
				return ctx.Err()
			}},
		// The fault fires at whichever item checks the site first, which
		// need not be item 0 once a worker and the caller both run items.
		{name: "task fault", emitted: -1,
			ctx: func() (context.Context, context.CancelFunc) {
				faults, err := faultpoint.Parse("parallel.task=hit:1")
				if err != nil {
					t.Fatal(err)
				}
				return context.WithCancel(faultpoint.With(context.Background(), faults))
			}},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 3} {
			for _, window := range []int{1, 4} {
				base := runtime.NumGoroutine()
				ctx, cancel := context.WithCancel(context.Background())
				if c.ctx != nil {
					ctx, cancel = c.ctx()
				}
				produce, work := c.produce, c.work
				if produce == nil {
					produce = produceN(1000)
				}
				if work == nil {
					work = square(2)
				}
				emitted := 0
				err := Ordered(ctx, NewPool(workers), window, produce, work, func(v int) error {
					if v != emitted*emitted {
						t.Fatalf("%s: item %d is %d", c.name, emitted, v)
					}
					emitted++
					if emitted == failAt+1 {
						if c.failEmit {
							return boom
						}
						if c.cancel {
							cancel()
						}
					}
					return nil
				})
				cancel()
				if c.want == nil && !faultpoint.IsFault(err) || c.want != nil && !errors.Is(err, c.want) {
					t.Errorf("%s (pool %d window %d): error %v, want %v", c.name, workers, window, err, c.want)
				}
				if c.emitted >= 0 && emitted != c.emitted {
					t.Errorf("%s (pool %d window %d): emitted %d items, want %d", c.name, workers, window, emitted, c.emitted)
				}
				if n := settledGoroutines(base); n > base {
					t.Errorf("%s (pool %d window %d): %d goroutines after return, %d before", c.name, workers, window, n, base)
				}
			}
		}
	}
}

// TestOrderedSaturatedPoolRunsInline: with every slot taken, the
// caller works each item itself instead of waiting for a slot.
func TestOrderedSaturatedPoolRunsInline(t *testing.T) {
	p := NewPool(1)
	p.sem <- struct{}{}
	defer func() { <-p.sem }()
	var got []int
	err := Ordered(context.Background(), p, 4, produceN(20), square(3), func(v int) error {
		got = append(got, v)
		return nil
	})
	if err != nil || len(got) != 20 {
		t.Fatalf("saturated pool: %d items, err %v", len(got), err)
	}
}

// TestOrderedOccupancyCountsBusyWorkers: a worker that holds its pool
// slot but waits for the next item is idle, so pool.occupancy falls
// back to zero while the producer waits for input.
func TestOrderedOccupancyCountsBusyWorkers(t *testing.T) {
	p := NewPool(2)
	reg := obs.NewRegistry()
	p.Instrument(reg)
	occ := reg.Gauge("pool.occupancy")
	gate := make(chan struct{})
	produce := func(ctx context.Context, yield func(int) bool) error {
		for i := 0; i < 3; i++ {
			if !yield(i) {
				return nil
			}
		}
		<-gate // the producer waits for input; the worker has nothing to do
		return nil
	}
	emitted := 0
	err := Ordered(context.Background(), p, 4, produce, square(4), func(int) error {
		if emitted++; emitted == 3 {
			deadline := time.Now().Add(time.Second)
			for occ.Value() != 0 && time.Now().Before(deadline) {
				time.Sleep(100 * time.Microsecond)
			}
			if v := occ.Value(); v != 0 {
				t.Errorf("occupancy %d with every item worked, want 0", v)
			}
			close(gate)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
