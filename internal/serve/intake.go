// The multi-source intake queue: bounded per-source byte buffers with
// a declared fold order, reassembled into one io.Reader for the stream
// engine. Source order is the determinism anchor (DESIGN.md §15): the
// first incomplete source streams into the engine while later sources
// buffer, so the engine always reads exactly the concatenation of the
// per-source byte streams in declared order — byte-for-byte the file
// `cat source1 source2 ...` would produce, regardless of how the
// deliveries interleave on the wire.

package serve

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/telemetry"
)

var (
	// ErrBufferFull is returned by a non-blocking append when the
	// source's buffer cannot take the delivery — the HTTP 429 signal.
	ErrBufferFull = errors.New("serve: source buffer full")
	// ErrUnknownSource is returned for a source ID that was not
	// declared at startup.
	ErrUnknownSource = errors.New("serve: unknown source")
	// ErrSourceComplete is returned for a delivery to a completed
	// source.
	ErrSourceComplete = errors.New("serve: source already complete")
	// ErrDraining is returned for deliveries after shutdown began.
	ErrDraining = errors.New("serve: intake draining")
	// ErrOversizedDelivery is returned for a single delivery larger
	// than the per-source buffer — it could never be accepted whole.
	ErrOversizedDelivery = errors.New("serve: delivery exceeds per-source buffer")
)

// DuplicateDelivery reports a redelivery whose ID was already
// accepted: the transport retried (at-least-once), the fold will not
// (exactly-once). Carries the originally accepted byte count so the
// client can reconcile its offset.
type DuplicateDelivery struct {
	Source string
	ID     string
	Bytes  int64
}

func (e *DuplicateDelivery) Error() string {
	return fmt.Sprintf("serve: delivery %q to source %q already accepted (%d bytes)", e.ID, e.Source, e.Bytes)
}

// CompletedSource is the ErrSourceComplete carrier: it adds the
// source's final accepted byte count so a retrying client can
// reconcile a 409 against its own offset.
type CompletedSource struct {
	Source string
	Bytes  int64
}

func (e *CompletedSource) Error() string {
	return fmt.Sprintf("serve: source %q already complete at %d accepted bytes", e.Source, e.Bytes)
}

func (e *CompletedSource) Unwrap() error { return ErrSourceComplete }

// source is one registered intake source: its undrained buffer and
// accounting. All fields are guarded by the intake mutex.
type source struct {
	name     string
	buf      []byte // undrained bytes (drained from the front by Read)
	off      int    // read offset into buf
	bytes    int64  // total bytes accepted (journal replay included)
	lines    int64  // total newlines accepted
	requests int64  // accepted deliveries (HTTP bodies / TCP reads)
	complete bool
	lastAt   time.Time
	// seen dedups client-stamped delivery IDs (id → accepted payload
	// bytes); seeded from the journal on resume so redeliveries across
	// a restart stay exactly-once. One entry per stamped delivery.
	seen map[string]int64
	// replay, when non-nil, is the journal prefix Read serves before
	// the live buffer — the crash-recovery splice.
	replay *walReplay
}

// buffered is the source's current undrained byte count.
func (s *source) buffered() int64 { return int64(len(s.buf) - s.off) }

// intake is the bounded multi-source buffer feeding the engine. One
// goroutine (the engine's scanner) reads; any number of connection
// goroutines append. Implements io.Reader: Read serves the active
// source's bytes in order, advances to the next source when the active
// one completes and drains, and returns io.EOF once every source is
// complete and empty.
type intake struct {
	mu   sync.Mutex
	cond *sync.Cond

	sources  []*source
	byName   map[string]*source
	active   int
	bufCap   int64
	clock    obs.Clock
	holder   *telemetry.Holder
	draining bool
	// interrupted is set once the engine abandons its scan: a Read that
	// would wait for more input fails instead.
	interrupted bool
	// walWant is set when the server is configured with a journal; wal
	// is attached by Run once the journal is open and replayed. Between
	// listener bind and attach, deliveries are refused with
	// ErrWALNotReady (durable ack would be impossible).
	walWant bool
	wal     *walManager
}

// newIntake builds the queue over the declared sources in fold order.
// walWant declares that a journal will be attached before folding
// starts; deliveries are refused until it is.
func newIntake(names []string, bufCap int64, clock obs.Clock, holder *telemetry.Holder, walWant bool) (*intake, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("serve: at least one source is required")
	}
	if bufCap <= 0 {
		return nil, fmt.Errorf("serve: buffer capacity must be positive, got %d", bufCap)
	}
	in := &intake{
		byName:  make(map[string]*source, len(names)),
		bufCap:  bufCap,
		clock:   clock,
		holder:  holder,
		walWant: walWant,
	}
	in.cond = sync.NewCond(&in.mu)
	now := clock.Now()
	for _, name := range names {
		if name == "" {
			return nil, fmt.Errorf("serve: empty source name")
		}
		if _, dup := in.byName[name]; dup {
			return nil, fmt.Errorf("serve: duplicate source %q", name)
		}
		src := &source{name: name, lastAt: now, seen: make(map[string]int64)}
		in.sources = append(in.sources, src)
		in.byName[name] = src
	}
	in.mu.Lock()
	in.publishLocked()
	in.mu.Unlock()
	return in, nil
}

// attachWAL splices an opened journal into the queue: per-source
// counters, dedup sets and completion flags are seeded from the scan,
// and each source's replayable journal prefix becomes the head of its
// byte stream. Called by Run before the engine reads a byte; until
// then append refuses deliveries (ErrWALNotReady).
func (in *intake) attachWAL(wal *walManager, recovered map[string]*walRecovered) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.wal = wal
	for _, src := range in.sources {
		rec := recovered[src.name]
		if rec == nil {
			continue
		}
		src.bytes = rec.bytes
		src.lines = rec.lines
		src.requests = rec.deliveries
		src.complete = rec.complete
		for id, n := range rec.seen {
			src.seen[id] = n
		}
		if len(rec.parts) > 0 {
			src.replay = newWALReplay(rec.parts)
		}
	}
	in.publishLocked()
	in.cond.Broadcast()
}

// append accepts one delivery for a source, atomically: either the
// whole delivery is journaled and buffered or nothing is. id is the
// client's delivery stamp ("" for unstamped deliveries): a stamped ID
// already accepted returns *DuplicateDelivery — the transport retried
// but the fold will not. With wait set (TCP pushback) a full buffer
// blocks until the engine drains space or the intake starts draining;
// without it (HTTP) a full buffer returns ErrBufferFull for the
// handler's 429. ctx carries the fault-injection set for the journal
// sites.
func (in *intake) append(ctx context.Context, name, id string, data []byte, wait bool) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	src, ok := in.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSource, name)
	}
	if int64(len(data)) > in.bufCap {
		return fmt.Errorf("%w: %d bytes, buffer %d", ErrOversizedDelivery, len(data), in.bufCap)
	}
	for {
		// Dedup wins over every other refusal: a redelivery of an
		// accepted ID is answered "already have it" even while the
		// source is complete or the buffer is full — that is what makes
		// blind client retries safe.
		if id != "" {
			if n, dup := src.seen[id]; dup {
				if in.wal != nil {
					in.wal.NoteDuplicate()
				}
				return &DuplicateDelivery{Source: name, ID: id, Bytes: n}
			}
		}
		if in.draining {
			return ErrDraining
		}
		if src.complete {
			return &CompletedSource{Source: name, Bytes: src.bytes}
		}
		if in.walWant && in.wal == nil {
			return ErrWALNotReady
		}
		if src.buffered()+int64(len(data)) <= in.bufCap {
			break
		}
		if !wait {
			return fmt.Errorf("%w: %q at %d of %d bytes", ErrBufferFull, name, src.buffered(), in.bufCap)
		}
		in.cond.Wait()
	}
	// Journal before buffering: the delivery is acknowledged only once
	// it is durable, and a journal failure leaves the intake state
	// untouched (the client retries against the shed 503).
	if in.wal != nil {
		if err := in.wal.Append(ctx, name, id, data); err != nil {
			return err
		}
	}
	if src.off > 0 && src.off == len(src.buf) {
		src.buf = src.buf[:0]
		src.off = 0
	}
	src.buf = append(src.buf, data...)
	src.bytes += int64(len(data))
	src.requests++
	for _, b := range data {
		if b == '\n' {
			src.lines++
		}
	}
	if id != "" {
		src.seen[id] = int64(len(data))
	}
	src.lastAt = in.clock.Now()
	in.publishLocked()
	in.cond.Broadcast()
	return nil
}

// completeSource marks a source finished, journaling the completion
// first so a restart cannot reopen a source whose completion was
// acknowledged. Idempotent: completing a completed source is a no-op,
// so delivery retries are safe.
func (in *intake) completeSource(ctx context.Context, name string) error {
	in.mu.Lock()
	defer in.mu.Unlock()
	src, ok := in.byName[name]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownSource, name)
	}
	if src.complete {
		return nil
	}
	if in.walWant && in.wal == nil {
		return ErrWALNotReady
	}
	if in.wal != nil {
		if err := in.wal.Complete(ctx, name); err != nil {
			return err
		}
	}
	src.complete = true
	src.lastAt = in.clock.Now()
	in.publishLocked()
	in.cond.Broadcast()
	return nil
}

// drain begins shutdown: every source is treated as complete (whatever
// arrived is folded, in order) and all future deliveries are refused.
func (in *intake) drain() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.draining = true
	in.publishLocked()
	in.cond.Broadcast()
}

// errInterrupted is what a Read waiting for input returns once the
// engine has abandoned its scan.
var errInterrupted = errors.New("serve: intake read interrupted: the engine stopped folding")

// Interrupt wakes a Read blocked waiting for input and makes every
// later wait fail with errInterrupted. The engine calls it when it
// abandons its scan (a fold error), so its scanning goroutine can be
// joined while sources are still open.
func (in *intake) Interrupt() {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.interrupted = true
	in.cond.Broadcast()
}

// Read implements io.Reader for the engine's scanner: it serves the
// active source's buffered bytes, advances past completed-and-empty
// sources in declared order, blocks while the active source is open
// but empty (until Interrupt), and returns io.EOF once every source is
// drained.
func (in *intake) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.active >= len(in.sources) {
			return 0, io.EOF
		}
		src := in.sources[in.active]
		// The journal prefix streams first: recovered bytes precede
		// anything delivered after the restart, reproducing the exact
		// concatenation the crashed run acknowledged.
		if src.replay != nil {
			n, err := src.replay.Read(p)
			if n > 0 {
				return n, nil
			}
			if err == io.EOF {
				src.replay.Close()
				src.replay = nil
				continue
			}
			return 0, err
		}
		if src.buffered() > 0 {
			n := copy(p, src.buf[src.off:])
			src.off += n
			if src.off == len(src.buf) {
				src.buf = src.buf[:0]
				src.off = 0
			}
			in.publishLocked()
			// Space freed: wake any TCP appender blocked on a full
			// buffer.
			in.cond.Broadcast()
			return n, nil
		}
		if src.complete || in.draining {
			in.active++
			in.publishLocked()
			continue
		}
		if in.interrupted {
			return 0, errInterrupted
		}
		in.cond.Wait()
	}
}

// publishLocked hands a copy-on-publish intake view to the holder.
// Caller holds the intake mutex, which also serializes the holder's
// intake sequence numbering.
func (in *intake) publishLocked() {
	if in.holder == nil {
		return
	}
	st := telemetry.IntakeStats{
		Sources:   make([]telemetry.IntakeSource, 0, len(in.sources)),
		Active:    in.active,
		BufferCap: in.bufCap,
		Draining:  in.draining,
	}
	for _, src := range in.sources {
		st.Sources = append(st.Sources, telemetry.IntakeSource{
			Name:     src.name,
			Bytes:    src.bytes,
			Lines:    src.lines,
			Requests: src.requests,
			Buffered: src.buffered(),
			Complete: src.complete,
			LastAt:   src.lastAt,
		})
	}
	in.holder.PublishIntake(st)
}
