package parallel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"fullweb/internal/obs"
)

// Ordered runs a three-stage pipeline whose output order never depends
// on the pool size: one producer goroutine calls produce, which hands
// items over in sequence through yield; up to Size workers, each
// holding a pool slot, run work on them concurrently; and the calling
// goroutine passes each result to emit strictly in production order.
// Scanning, parsing and folding a log therefore overlap while the fold
// sees exactly the sequence a sequential loop would produce.
//
// window bounds the items in flight: at most window items sit between
// the start of their production and the return of their emit (values
// below 1 mean 1). The producer takes a window slot before it starts
// each item, so window × item size bounds the pipeline's memory.
//
// Errors arrive in input order. An error produce returns surfaces after
// every item it yielded before has been emitted; a work error surfaces
// when its item's turn to be emitted comes; an emit error, or the
// cancellation of ctx, abandons the rest. On abandonment yield returns
// false and the ctx passed to produce is canceled; produce must then
// return, and a produce blocked in I/O must watch that ctx to be
// woken. Ordered returns only after the producer and every worker have
// exited, on every path.
//
// When no pool slot is free, the caller runs the item it waits for
// inline, so a saturated pool slows the pipeline but never deadlocks
// it. Each item consults the parallel.task fault site before work.
func Ordered[T, U any](ctx context.Context, p *Pool, window int,
	produce func(ctx context.Context, yield func(T) bool) error,
	work func(ctx context.Context, item T) (U, error),
	emit func(U) error) error {
	window = max(window, 1)
	cctx, cancel := context.WithCancel(ctx)
	o := &ordered[T, U]{
		ctx:   cctx,
		pool:  p,
		work:  work,
		slots: make(chan struct{}, window),
		// The window admits at most window items that are produced and
		// not yet emitted, so a send on order never blocks, and one on
		// queue only until a worker takes the next item.
		order: make(chan *orderedItem[T, U], window),
		queue: make(chan *orderedItem[T, U], window),
		limit: min(p.Size(), window),
	}
	prodDone := make(chan struct{})
	var prodErr error
	o.slots <- struct{}{}
	go func() {
		defer close(prodDone)
		defer close(o.order)
		defer close(o.queue)
		prodErr = produce(cctx, o.yield)
	}()
	err := o.drain(ctx, emit)
	cancel()
	<-prodDone
	o.workers.Wait()
	if err != nil {
		return err
	}
	return prodErr
}

// orderedItem is one item in flight: its input, and once done is
// closed, its result. claimed decides whether a worker or the emitting
// caller runs it.
type orderedItem[T, U any] struct {
	index   int
	in      T
	out     U
	err     error
	claimed atomic.Bool
	done    chan struct{}
}

// ordered is the shared state of one Ordered call.
type ordered[T, U any] struct {
	ctx   context.Context
	pool  *Pool
	work  func(ctx context.Context, item T) (U, error)
	slots chan struct{} // window semaphore: one token per item in flight
	order chan *orderedItem[T, U]
	queue chan *orderedItem[T, U]
	// next and spawned are the producer's own: the next item index and
	// the workers started so far, at most limit.
	next    int
	spawned int
	limit   int
	workers sync.WaitGroup
}

// yield hands one item to the workers and the emitter, then takes the
// window slot for the next item. It returns false once the pipeline is
// abandoned. It runs on the producer goroutine only.
func (o *ordered[T, U]) yield(in T) bool {
	it := &orderedItem[T, U]{index: o.next, in: in, done: make(chan struct{})}
	o.next++
	o.order <- it
	// Without a worker the emitter runs every item inline, and nothing
	// would drain the queue.
	if o.spawn(); o.spawned > 0 {
		select {
		case o.queue <- it:
		case <-o.ctx.Done():
			return false
		}
	}
	if o.ctx.Err() != nil {
		return false
	}
	select {
	case o.slots <- struct{}{}:
		return true
	case <-o.ctx.Done():
		return false
	}
}

// spawn starts one more worker when fewer than limit run and a pool slot
// is free. Workers live until the producer closes the queue or the
// pipeline is abandoned, and hold their slot throughout; pool.occupancy
// counts one only while the worker runs an item, so it reads busy
// slots as it does for Map.
func (o *ordered[T, U]) spawn() {
	if o.spawned == o.limit {
		return
	}
	select {
	case o.pool.sem <- struct{}{}:
	default:
		return
	}
	o.spawned++
	o.workers.Add(1)
	go func() {
		defer o.workers.Done()
		defer func() { <-o.pool.sem }()
		for {
			select {
			case it, ok := <-o.queue:
				if !ok {
					return
				}
				if it.claimed.CompareAndSwap(false, true) {
					o.pool.m.occupancy.Add(1)
					o.run(it, o.pool.m.workerRuns, "worker")
					o.pool.m.occupancy.Add(-1)
				}
			case <-o.ctx.Done():
				return
			}
		}
	}()
}

// run works one claimed item and publishes its result.
func (o *ordered[T, U]) run(it *orderedItem[T, U], ran *obs.Counter, mode string) {
	defer close(it.done)
	ran.Inc()
	tctx, sp := obs.StartSpan(o.ctx, "parallel.task")
	defer sp.End()
	sp.SetInt("index", int64(it.index))
	sp.SetAttr("mode", mode)
	if err := fpTask.Check(tctx); err != nil {
		it.err = fmt.Errorf("parallel: task %d: %w", it.index, err)
		return
	}
	it.out, it.err = o.work(tctx, it.in)
}

// drain is the emitting side, on the caller's goroutine: each item in
// production order is waited for (or run inline if no worker has
// claimed it), emitted, and its window slot released.
func (o *ordered[T, U]) drain(ctx context.Context, emit func(U) error) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		var it *orderedItem[T, U]
		select {
		case next, ok := <-o.order:
			if !ok {
				// The producer is done: at the end of its input, after
				// its error, or abandoned because ctx was canceled.
				return ctx.Err()
			}
			it = next
		case <-ctx.Done():
			return ctx.Err()
		}
		if it.claimed.CompareAndSwap(false, true) {
			o.run(it, o.pool.m.inlineRuns, "inline")
		}
		<-it.done
		if it.err != nil {
			return it.err
		}
		if err := emit(it.out); err != nil {
			return err
		}
		<-o.slots
	}
}
