// Package telemetry is the live observation surface over the
// streaming engine: an atomic copy-on-publish holder for the engine's
// runtime stats and trace-time snapshots, health rules evaluated on
// demand against the held state, a read-only HTTP service (/metrics,
// /snapshot, /healthz, /readyz), and the end-of-run JSON report. The
// engine publishes immutable values; HTTP handlers only ever read what
// was published — the mux never touches live engine state
// (DESIGN.md §14).
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/stream"
)

// PublishedRuntime is one immutable runtime publication: the engine's
// copy-on-publish counters plus the holder's sequence number and
// wall-clock stamp (observability only — never part of analysis
// output).
type PublishedRuntime struct {
	Seq   int64               `json:"seq"`
	At    time.Time           `json:"at"`
	Stats stream.RuntimeStats `json:"stats"`
}

// PublishedSnapshot is one immutable trace-time snapshot publication.
type PublishedSnapshot struct {
	Seq      int64            `json:"seq"`
	At       time.Time        `json:"published_at"`
	Snapshot *stream.Snapshot `json:"snapshot"`
}

// PublishedArrivals is one immutable arrival-series publication — the
// copy-on-publish ring view the serve-mode what-if layer computes
// from. Handlers read this copy and never the engine's live ring.
type PublishedArrivals struct {
	Seq    int64                 `json:"seq"`
	At     time.Time             `json:"published_at"`
	Series *stream.ArrivalSeries `json:"series"`
}

// runtimePair is the holder's runtime cell: the current publication,
// the previous one (growth-rate rules difference the two), and the
// stamp of the last observed checkpoint-count increase.
type runtimePair struct {
	cur  PublishedRuntime
	prev *PublishedRuntime
	// lastCheckpointAt is when Checkpoints last increased — the
	// checkpoint-staleness rule's reference point. Initialized to the
	// holder's start time so a run that never checkpoints ages from
	// startup.
	lastCheckpointAt time.Time
}

// Holder is the atomic copy-on-publish hand-off between the engine's
// fold goroutine (the single publisher) and any number of concurrent
// readers (HTTP handlers, health rules). Each publication builds a
// fresh immutable cell and swaps a pointer; readers always see a
// complete, stamped publication and never a partially written one.
type Holder struct {
	clock   obs.Clock
	started time.Time
	runtime atomic.Pointer[runtimePair]
	snap    atomic.Pointer[PublishedSnapshot]
	arr     atomic.Pointer[PublishedArrivals]
	// intake is the serve-mode intake publication cell. Unlike the
	// engine cells it has multiple publishers (every intake connection
	// goroutine), so its seq read-modify-write is serialized by
	// intakeMu; readers stay lock-free on the atomic pointer.
	intakeMu sync.Mutex
	intake   atomic.Pointer[PublishedIntake]
	// wal is the serve-mode journal publication cell; single-publisher
	// (the supervisor on the fold goroutine) like the runtime cell.
	wal atomic.Pointer[PublishedWAL]
}

// NewHolder builds a holder stamping publications with clock.
func NewHolder(clock obs.Clock) *Holder {
	return &Holder{clock: clock, started: clock.Now()}
}

// PublishRuntime implements stream.Telemetry. Single-publisher: the
// engine's fold goroutine is the only caller, so read-modify-write on
// the cell pointer needs no CAS loop.
func (h *Holder) PublishRuntime(rt stream.RuntimeStats) {
	now := h.clock.Now()
	next := &runtimePair{lastCheckpointAt: h.started}
	if old := h.runtime.Load(); old != nil {
		next.cur.Seq = old.cur.Seq + 1
		prev := old.cur
		next.prev = &prev
		next.lastCheckpointAt = old.lastCheckpointAt
		if rt.Checkpoints > old.cur.Stats.Checkpoints {
			next.lastCheckpointAt = now
		}
	} else {
		next.cur.Seq = 1
		if rt.Checkpoints > 0 {
			// First publication already carries checkpoints (resumed
			// run): treat them as fresh as of now.
			next.lastCheckpointAt = now
		}
	}
	next.cur.At = now
	next.cur.Stats = rt
	h.runtime.Store(next)
}

// PublishSnapshot implements stream.Telemetry.
func (h *Holder) PublishSnapshot(s *stream.Snapshot) {
	next := &PublishedSnapshot{At: h.clock.Now(), Snapshot: s}
	if old := h.snap.Load(); old != nil {
		next.Seq = old.Seq + 1
	} else {
		next.Seq = 1
	}
	h.snap.Store(next)
}

// LatestRuntime returns the most recent runtime publication and the
// one before it (nil when fewer than two have been published). ok is
// false before the first publication.
func (h *Holder) LatestRuntime() (cur PublishedRuntime, prev *PublishedRuntime, ok bool) {
	p := h.runtime.Load()
	if p == nil {
		return PublishedRuntime{}, nil, false
	}
	return p.cur, p.prev, true
}

// PublishArrivals implements stream.ArrivalPublisher. Single-publisher
// like the runtime cell: the engine's fold goroutine is the only
// caller.
func (h *Holder) PublishArrivals(s *stream.ArrivalSeries) {
	next := &PublishedArrivals{At: h.clock.Now(), Series: s}
	if old := h.arr.Load(); old != nil {
		next.Seq = old.Seq + 1
	} else {
		next.Seq = 1
	}
	h.arr.Store(next)
}

// LatestArrivals returns the most recent arrival-series publication;
// ok is false before the first one.
func (h *Holder) LatestArrivals() (PublishedArrivals, bool) {
	p := h.arr.Load()
	if p == nil {
		return PublishedArrivals{}, false
	}
	return *p, true
}

// LatestSnapshot returns the most recent snapshot publication; ok is
// false before the first one.
func (h *Holder) LatestSnapshot() (PublishedSnapshot, bool) {
	p := h.snap.Load()
	if p == nil {
		return PublishedSnapshot{}, false
	}
	return *p, true
}

// LastCheckpointAt returns when the holder last saw the checkpoint
// count increase (the holder's start time when it never has) — the
// checkpoint-staleness rule's reference point.
func (h *Holder) LastCheckpointAt() time.Time {
	if p := h.runtime.Load(); p != nil {
		return p.lastCheckpointAt
	}
	return h.started
}
