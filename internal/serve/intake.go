// The multi-source intake queue: one bounded ledger of accepted
// deliveries per source, with a declared fold order, reassembled into
// one io.Reader for the stream engine. Source order is the determinism
// anchor (DESIGN.md §15): the first incomplete source streams into the
// engine while later sources buffer, so the engine always reads
// exactly the concatenation of the per-source byte streams in declared
// order — byte-for-byte the file `cat source1 source2 ...` would
// produce, regardless of how the deliveries interleave on the wire.

package serve

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"
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

// source is one registered intake source: its ledger and the time of
// its last accepted delivery or completion. Guarded by the intake
// mutex.
type source struct {
	name   string
	lastAt time.Time
	*ledger
}

// extent is one accepted delivery's bytes: a payload range of a
// journal segment file, or — without a journal — the delivery itself.
type extent struct {
	path string // segment file; "" when data holds the bytes
	off  int64  // payload offset inside path
	n    int64
	data []byte
}

// ledger is one source's accepted deliveries, in order, and everything
// derived from them. Recovery scans a journal straight into a ledger,
// live deliveries extend it, and Read drains it through one path, so
// recovered and live bytes are the same kind of thing. Guarded by the
// intake mutex.
type ledger struct {
	// ext holds the extents not yet fully read; pos bytes of ext[0]
	// have been. f is the open read handle on a segment file.
	ext []extent
	pos int64
	f   *os.File

	bytes      int64 // accepted payload bytes, recovered included
	lines      int64 // accepted newlines
	deliveries int64
	read       int64 // bytes served to the engine
	recovered  int64 // bytes the journal held at open
	complete   bool
	// seen dedups client-stamped delivery IDs (id → accepted payload
	// bytes); recovery rebuilds it from the journal, so redeliveries
	// across a restart stay exactly-once. One entry per stamped
	// delivery.
	seen map[string]int64
	// marks holds one entry per journaled delivery.
	marks []walMark
}

// walMark is one delivery boundary: the source's cumulative newline
// and payload-byte totals after it — the grid the line→byte lag
// mapping rounds down on.
type walMark struct {
	lines int64
	bytes int64
}

func newLedger() *ledger { return &ledger{seen: make(map[string]int64)} }

// add records one accepted delivery holding lines newlines.
func (l *ledger) add(e extent, id string, lines int64) {
	l.ext = append(l.ext, e)
	l.bytes += e.n
	l.lines += lines
	l.deliveries++
	if id != "" {
		l.seen[id] = e.n
	}
	if e.path != "" {
		l.marks = append(l.marks, walMark{lines: l.lines, bytes: l.bytes})
	}
}

// buffered is the count the buffer cap bounds: bytes accepted since
// open and not yet read. The journal prefix recovered at open is not
// counted — it is already durable and folds first whatever its size.
func (l *ledger) buffered() int64 { return l.bytes - max(l.read, l.recovered) }

// readInto fills p with the next unread accepted bytes, from memory
// or from the journal segments holding them; 0, nil means everything
// accepted so far has been read.
func (l *ledger) readInto(p []byte) (int, error) {
	total := 0
	for len(l.ext) > 0 && total < len(p) {
		e := &l.ext[0]
		want := min(e.n-l.pos, int64(len(p)-total))
		n := 0
		if e.path == "" {
			n = copy(p[total:], e.data[l.pos:l.pos+want])
		} else {
			if l.f == nil || l.f.Name() != e.path {
				l.closeReader()
				f, err := os.Open(e.path)
				if err != nil {
					return total, fmt.Errorf("serve: wal read: %w", err)
				}
				l.f = f
			}
			var err error
			if n, err = l.f.ReadAt(p[total:total+int(want)], e.off+l.pos); n == 0 && want > 0 {
				return total, fmt.Errorf("serve: wal read %s: %w", e.path, err)
			}
		}
		total += n
		l.pos += int64(n)
		l.read += int64(n)
		if l.pos == e.n {
			l.ext[0] = extent{}
			l.ext = l.ext[1:]
			l.pos = 0
		}
	}
	return total, nil
}

// closeReader releases the segment read handle.
func (l *ledger) closeReader() {
	if l.f != nil {
		l.f.Close()
		l.f = nil
	}
}

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
		src := &source{name: name, lastAt: now, ledger: newLedger()}
		in.sources = append(in.sources, src)
		in.byName[name] = src
	}
	in.mu.Lock()
	in.publishLocked()
	in.mu.Unlock()
	return in, nil
}

// attachWAL adopts an opened journal and the ledgers recovered from
// it, one per source in declared order: counters, dedup sets,
// completion flags and the journaled bytes still to fold. Called by
// Run before the engine reads a byte; until then append refuses
// deliveries (ErrWALNotReady).
func (in *intake) attachWAL(wal *walManager, recovered []*ledger) {
	in.mu.Lock()
	defer in.mu.Unlock()
	in.wal = wal
	for i, src := range in.sources {
		src.ledger = recovered[i]
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
	// With a journal the segment is the buffer: the delivery is
	// acknowledged only once it is written there, and a journal failure
	// leaves the intake state untouched (the client retries against the
	// shed 503). Without one the ledger keeps its own copy.
	e := extent{n: int64(len(data))}
	if in.wal != nil {
		var err error
		if e, err = in.wal.Append(ctx, name, id, src.bytes, data); err != nil {
			return err
		}
	} else {
		e.data = append([]byte(nil), data...)
	}
	src.add(e, id, int64(bytes.Count(data, newline)))
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
		if err := in.wal.Complete(ctx, name, src.bytes); err != nil {
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

// newline is the line-count separator, hoisted so the per-delivery
// bytes.Count stays allocation-free.
var newline = []byte("\n")

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
// active source's accepted bytes — those recovered from the journal
// first, as they were accepted first — advances past completed-and-read
// sources in declared order, blocks while the active source is open
// but read up (until Interrupt), and returns io.EOF once every source
// is drained.
func (in *intake) Read(p []byte) (int, error) {
	in.mu.Lock()
	defer in.mu.Unlock()
	for {
		if in.active >= len(in.sources) {
			return 0, io.EOF
		}
		src := in.sources[in.active]
		n, err := src.readInto(p)
		if err != nil {
			return n, err
		}
		if n > 0 {
			in.publishLocked()
			// Space freed: wake any TCP appender blocked on a full
			// buffer.
			in.cond.Broadcast()
			return n, nil
		}
		if src.complete || in.draining {
			src.closeReader()
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

// closeReaders releases every source's segment read handle once the
// engine has stopped reading.
func (in *intake) closeReaders() {
	in.mu.Lock()
	defer in.mu.Unlock()
	for _, src := range in.sources {
		src.closeReader()
	}
}

// walStats is the journal's published view: what the journal itself
// knows, plus the totals and lags the ledgers derive. foldedLines and
// checkpointLines are the engine's cumulative folded and
// last-checkpointed line counts over the concatenation.
func (in *intake) walStats(foldedLines, checkpointLines int64) telemetry.WALStats {
	in.mu.Lock()
	defer in.mu.Unlock()
	st := in.wal.Stats()
	for _, src := range in.sources {
		st.JournaledBytes += src.bytes
		st.Deliveries += src.deliveries
	}
	st.LagBytes = st.JournaledBytes - in.coveredBytesLocked(foldedLines)
	st.CheckpointLagBytes = st.JournaledBytes - in.coveredBytesLocked(checkpointLines)
	return st
}

// coveredBytesLocked maps a cumulative line count over the declared
// concatenation to journaled payload bytes, walking sources in order
// and rounding down to the last delivery boundary inside the partially
// folded source — so lags are conservative overestimates.
func (in *intake) coveredBytesLocked(lines int64) int64 {
	var covered int64
	remaining := lines
	for _, src := range in.sources {
		if remaining <= 0 {
			break
		}
		if src.lines <= remaining {
			covered += src.bytes
			remaining -= src.lines
			continue
		}
		marks := src.marks
		idx := sort.Search(len(marks), func(i int) bool { return marks[i].lines > remaining })
		if idx > 0 {
			covered += marks[idx-1].bytes
		}
		break
	}
	return covered
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
			Requests: src.deliveries,
			Buffered: src.buffered(),
			Complete: src.complete,
			LastAt:   src.lastAt,
		})
	}
	in.holder.PublishIntake(st)
}
