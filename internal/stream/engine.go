package stream

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/faultpoint"
	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/parallel"
	"fullweb/internal/session"
	"fullweb/internal/weblog"
)

var (
	// ErrNoRecords is returned when the stream holds no parseable
	// records.
	ErrNoRecords = errors.New("stream: no records")
	// ErrBadConfig is returned for invalid engine parameters.
	ErrBadConfig = errors.New("stream: invalid config")
)

// The engine's registered fault-injection sites (DESIGN.md §11):
//
//	stream.fold        — crash at a chunk-fold boundary
//	stream.snapshot    — crash while emitting a periodic snapshot
//	stream.checkpoint  — crash before capturing a checkpoint
var (
	fpFold       = faultpoint.NewSite("stream.fold")
	fpSnapshot   = faultpoint.NewSite("stream.snapshot")
	fpCheckpoint = faultpoint.NewSite("stream.checkpoint")
)

// Config tunes the streaming engine. The zero value is not valid; use
// DefaultConfig.
type Config struct {
	// Threshold delimits sessions (the paper's 30 minutes by default).
	Threshold time.Duration
	// SnapshotEvery is the trace-time interval between periodic
	// snapshots; 0 disables periodic snapshots (only the final one is
	// produced). Cadence is driven by record timestamps, never the wall
	// clock, so output is a pure function of the input.
	SnapshotEvery time.Duration
	// Chunk tunes the chunked parser (lines per chunk, chunks in
	// flight); the window is the engine's backpressure bound.
	Chunk weblog.ChunkConfig
	// Workers bounds the parse worker pool. 0 means runtime.NumCPU().
	// Chunks are parsed concurrently but folded into the engine state
	// strictly in input order, so results are identical at any setting.
	Workers int
	// ReservoirCap bounds each characteristic's Hill reservoir. While a
	// stream has fewer sessions than this, the streaming Hill estimate
	// is exactly the batch estimate.
	ReservoirCap int
	// QuantileCap bounds each characteristic's quantile sketch; below
	// capacity the streaming quantiles are exactly the batch quantiles.
	// 0 means DefaultQuantileCap.
	QuantileCap int
	// Seed derives the reservoir sampling streams (one sub-seed per
	// characteristic), making snapshots reproducible run to run.
	Seed int64
	// HillTailFraction and HillRelTol configure the Hill read-off,
	// exactly as in the batch pipeline.
	HillTailFraction float64
	HillRelTol       float64
	// AggVarLevels is the number of dyadic aggregation levels of the
	// streaming Hurst estimators; 0 means lrd.DefaultAggVarLevels.
	AggVarLevels int
	// Metrics optionally instruments the engine (records, sessions,
	// snapshots, live-session gauge) and its parse pool. Nil costs and
	// changes nothing.
	Metrics *obs.Registry
	// Telemetry, when non-nil, receives live runtime stats at chunk
	// granularity and every assembled snapshot — the copy-on-publish
	// feed behind `fullweb stream -listen`. Publication never feeds
	// back into engine state, so output is byte-identical with or
	// without it.
	Telemetry Telemetry
	// Mode selects strict, budgeted or lenient ingestion; the zero
	// value is ModeBudgeted.
	Mode Mode
	// Budget bounds tolerated degradation in ModeBudgeted; the zero
	// value never degrades.
	Budget Budget
	// Quarantine, when non-nil, receives every rejected raw line (one
	// per line, in input order) — the deterministic quarantine sink.
	Quarantine io.Writer
	// CheckpointPath, when non-empty, makes the engine persist a
	// versioned, checksummed checkpoint of its full state at every
	// snapshot cadence: captured after the chunk that crossed the
	// boundary, so the file always sits on an exact line boundary, and
	// written atomically by the checkpoint writer goroutine while the
	// fold continues (DESIGN.md §11).
	CheckpointPath string
	// ArrivalWindow, when > 0, maintains a per-second arrival ring over
	// the most recent ArrivalWindow trace seconds and publishes it
	// through the Telemetry hook when it implements ArrivalPublisher —
	// the live series behind `fullweb serve`'s what-if queries. Pure
	// trace-time state (checkpointed, deterministic); 0 disables it.
	ArrivalWindow int
}

// DefaultConfig returns the paper-aligned defaults.
func DefaultConfig() Config {
	return Config{
		Threshold:        session.DefaultThreshold,
		SnapshotEvery:    6 * time.Hour,
		ReservoirCap:     8192,
		QuantileCap:      DefaultQuantileCap,
		Seed:             1,
		HillTailFraction: heavytail.DefaultHillTailFraction,
		HillRelTol:       heavytail.DefaultHillRelTol,
	}
}

// charState holds the online estimators of one characteristic:
// Welford moments, the quantile sketch and the reservoir Hill estimator.
type charState struct {
	name    string
	moments Welford
	quant   *QuantileSketch
	hill    *heavytail.OnlineHill
}

func (c *charState) observe(v float64) {
	c.moments.Observe(v)
	c.quant.Observe(v)
	c.hill.Observe(v)
}

// secondTracker folds a stream of event timestamps (non-decreasing Unix
// seconds) into the per-second counting series the LRD analysis runs
// on, filling empty seconds with zero counts exactly as the batch
// CountsPerSecond does, and feeds the dyadic aggregated-variance
// estimator. The current (still open) second is excluded from
// intermediate estimates and flushed at end of stream.
type secondTracker struct {
	est     *lrd.OnlineAggVar
	cur     int64
	count   float64
	started bool
	flushed bool
}

func (t *secondTracker) observe(sec int64) {
	if !t.started {
		t.started = true
		t.cur = sec
		t.count = 1
		return
	}
	if sec == t.cur {
		t.count++
		return
	}
	t.est.Add(t.count)
	// Idle gaps are zero runs; AddZeros is bit-identical to per-second
	// Add(0) but costs O(gap/width) per level, which is what keeps
	// sparse traces affordable (EXPERIMENTS.md).
	t.est.AddZeros(sec - t.cur - 1)
	t.cur = sec
	t.count = 1
}

// flush pushes the final open second; call exactly once, at EOF.
func (t *secondTracker) flush() {
	if t.started && !t.flushed {
		t.est.Add(t.count)
		t.flushed = true
	}
}

// Engine is the streaming analysis pipeline: one instance processes one
// log stream. Not safe for concurrent use. The chunk parser fans out
// internally; state is folded on a single goroutine, beside which one
// checkpoint writer goroutine persists the states the fold captures
// (only when a checkpoint path is configured, and joined before
// ProcessCtx returns).
type Engine struct {
	cfg  Config
	pool *parallel.Pool

	// streamer sessionizes the input; chars holds the per-characteristic
	// sketches over its finalized sessions, closed their count.
	streamer *session.Streamer
	chars    []*charState
	closed   int64
	// reqArr and sessArr track the request and session arrival
	// processes, fed in input order.
	reqArr  secondTracker
	sessArr secondTracker

	records      int64
	bytes        int64
	started      bool
	firstTime    time.Time
	lastTime     time.Time
	nextSnapshot time.Time
	snapshots    int64

	// ingest is the input-health accounting (rejects, clamps,
	// truncation, samples) surfaced in every snapshot.
	ingest IngestStats
	// lines counts raw input lines consumed, at chunk granularity —
	// the checkpoint's resume position.
	lines int64
	// quar wraps cfg.Quarantine to track the byte offset that goes
	// into checkpoints (nil when no sink is configured).
	quar *weblog.CountingWriter

	// tele is the engine's live-telemetry state: precomputed labeled
	// gauge handles plus fold/checkpoint accounting. Always non-nil;
	// transient observability state, never checkpointed (a resumed run
	// re-counts from its resume point).
	tele *engineTelemetry

	// arrivals is the per-second arrival ring behind serve's what-if
	// layer (nil unless cfg.ArrivalWindow > 0); arrPub is cfg.Telemetry
	// type-asserted to its optional arrival-publishing extension.
	arrivals *arrivalRing
	arrPub   ArrivalPublisher

	// ckptReq is the out-of-band checkpoint request flag (serve's WAL
	// supervisor sets it); honored at the next chunk-fold boundary, an
	// exact line boundary, so supervisor checkpoints are resume-correct
	// and output-invariant.
	ckptReq atomic.Bool
}

// charSeedStride derives the per-characteristic reservoir sub-seeds
// from the configured base seed: seed + char*charSeedStride.
const charSeedStride = 7919 // the 1e3-th prime

// normalizeQuantileCap applies the default capacity.
func normalizeQuantileCap(n int) int {
	if n <= 0 {
		return DefaultQuantileCap
	}
	return n
}

// NewEngine validates the configuration and builds an engine.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Threshold <= 0 {
		return nil, fmt.Errorf("%w: threshold %v", ErrBadConfig, cfg.Threshold)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("%w: snapshot interval %v", ErrBadConfig, cfg.SnapshotEvery)
	}
	if cfg.ReservoirCap < 16 {
		return nil, fmt.Errorf("%w: reservoir capacity %d (need >= 16)", ErrBadConfig, cfg.ReservoirCap)
	}
	if cfg.Workers < 0 {
		return nil, fmt.Errorf("%w: negative worker count %d", ErrBadConfig, cfg.Workers)
	}
	if err := cfg.Budget.validate(); err != nil {
		return nil, err
	}
	if cfg.ArrivalWindow < 0 {
		return nil, fmt.Errorf("%w: arrival window %d", ErrBadConfig, cfg.ArrivalWindow)
	}
	e := &Engine{cfg: cfg, pool: parallel.NewPool(cfg.Workers)}
	if cfg.Quarantine != nil {
		e.quar = &weblog.CountingWriter{W: cfg.Quarantine}
	}
	if cfg.ArrivalWindow > 0 {
		e.arrivals = newArrivalRing(cfg.ArrivalWindow)
		e.arrPub, _ = cfg.Telemetry.(ArrivalPublisher)
	}
	e.tele = newEngineTelemetry(cfg.Metrics)
	e.pool.Instrument(cfg.Metrics)
	var err error
	if e.streamer, err = session.NewStreamer(cfg.Threshold); err != nil {
		return nil, err
	}
	if e.reqArr.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
		return nil, err
	}
	if e.sessArr.est, err = lrd.NewOnlineAggVar(cfg.AggVarLevels); err != nil {
		return nil, err
	}
	qcap := normalizeQuantileCap(cfg.QuantileCap)
	for i, name := range core.AllCharacteristics() {
		seed := cfg.Seed + int64(i)*charSeedStride
		hill, err := heavytail.NewOnlineHill(cfg.ReservoirCap, seed, cfg.HillTailFraction, cfg.HillRelTol)
		if err != nil {
			return nil, err
		}
		quant, err := NewQuantileSketch(qcap)
		if err != nil {
			return nil, err
		}
		e.chars = append(e.chars, &charState{name: name, quant: quant, hill: hill})
	}
	return e, nil
}

// Snapshots returns the number of snapshots emitted so far (periodic
// plus, after ProcessCtx returns, the final one).
func (e *Engine) Snapshots() int64 { return e.snapshots }

// RequestCheckpoint asks the engine to persist a checkpoint at the
// next chunk-fold boundary at which no checkpoint write is in flight
// and no capture is pending (a no-op without a checkpoint path). Safe to call from any
// goroutine; requests coalesce until honored, and a request pending
// when an in-flight write commits is settled by that commit — the
// runtime publication that follows shows the new checkpoint line, so
// a caller that still needs one asks again. Chunk boundaries are
// exact line boundaries, so an extra checkpoint never changes a
// published byte — serve's WAL supervisor uses this to bound
// crash-replay by journal growth.
func (e *Engine) RequestCheckpoint() { e.ckptReq.Store(true) }

// noteClosed folds one finalized session into the per-characteristic
// sketches.
func (e *Engine) noteClosed(s *session.Session) {
	e.closed++
	for _, c := range e.chars {
		c.observe(core.CharacteristicValue(c.name, s))
	}
}

// ProcessCtx streams CLF text (plain or gzip; use io.MultiReader for
// rotated segments) through the engine. Chunks are parsed concurrently
// on the engine's pool with a bounded in-flight window (backpressure),
// then folded into the analysis state strictly in input order, so the
// outcome — including every snapshot — is byte-identical at any worker
// count. Records must be in non-decreasing time order, as access logs
// are written.
//
// emit (may be nil) receives each periodic snapshot as its trace-time
// boundary passes. The returned final snapshot includes the flushed
// still-open sessions, so its session count equals the batch
// sessionizer's exactly.
//
// The fold runs on the calling goroutine. With a checkpoint path, the
// fold only captures each checkpoint's state; one writer goroutine
// encodes, fsyncs and renames it, at most one write in flight, and a
// capture taken meanwhile waits as the pending one, replaced by any
// newer capture. A failed write is returned at the next chunk boundary
// or when ProcessCtx returns, which always joins the writer first —
// writing the pending capture — so the checkpoint file is settled
// whenever ProcessCtx has returned.
func (e *Engine) ProcessCtx(ctx context.Context, r io.Reader, emit func(*Snapshot) error) (*Snapshot, error) {
	var ckpt *checkpointWriter
	if e.cfg.CheckpointPath != "" {
		ckpt = newCheckpointWriter(e.cfg.CheckpointPath)
	}
	return e.process(ctx, r, emit, ckpt)
}

// process is ProcessCtx with its checkpoint writer (nil for none),
// which it starts and joins.
func (e *Engine) process(ctx context.Context, r io.Reader, emit func(*Snapshot) error, ckpt *checkpointWriter) (*Snapshot, error) {
	ctx, sp := obs.StartSpan(ctx, "stream.process")
	defer sp.End()
	reg := obs.MetricsFrom(ctx)
	ckpt.start(ctx)
	err := weblog.ReadChunksCtx(ctx, r, e.pool, e.cfg.Chunk, func(ch weblog.Chunk) error {
		_, csp := obs.StartSpan(ctx, "stream.fold_chunk")
		csp.SetInt("records", int64(len(ch.Records)))
		defer csp.End()
		if err := fpFold.Check(ctx); err != nil {
			return fmt.Errorf("stream: folding chunk at line %d: %w", ch.FirstLine, err)
		}
		snapsBefore := e.snapshots
		// Records and rejects are replayed in true input order
		// (ErrRecIndex interleaving), so reject accounting at snapshot
		// boundaries is independent of chunk geometry.
		next := 0
		for k := range ch.Errs {
			for next < ch.ErrRecIndex[k] {
				if err := e.observe(ctx, &ch.Records[next], emit); err != nil {
					return err
				}
				next++
			}
			if err := e.reject(ch.Errs[k]); err != nil {
				return err
			}
		}
		for ; next < len(ch.Records); next++ {
			if err := e.observe(ctx, &ch.Records[next], emit); err != nil {
				return err
			}
		}
		e.lines += int64(ch.Lines)
		reg.Gauge("stream.active_sessions").Set(int64(e.streamer.ActiveSessions()))
		if err := e.checkpointAtChunk(ctx, ckpt, e.snapshots > snapsBefore); err != nil {
			return err
		}
		e.noteChunkFolded()
		return nil
	})
	if werr := e.joinCheckpointWriter(ckpt); werr != nil {
		return nil, errors.Join(err, werr)
	}
	if err != nil {
		var re *weblog.ReadError
		if e.cfg.Mode == ModeBudgeted && errors.As(err, &re) && !faultpoint.IsFault(err) {
			// A genuine mid-stream read failure (truncated gzip
			// rotation, disk fault) under budgeted ingestion: treat the
			// stream as ended early and carry the degradation into the
			// verdict. Injected faults stay fatal — they simulate
			// crashes for the resume path.
			e.ingest.Truncated = true
			reg.Counter("stream.input_truncated").Inc()
		} else {
			return nil, err
		}
	}
	if e.records == 0 {
		return nil, ErrNoRecords
	}
	// End of stream: close every still-open session and the open
	// seconds, then build the final snapshot.
	open := e.streamer.Flush()
	for i := range open {
		e.noteClosed(&open[i])
	}
	e.reqArr.flush()
	e.sessArr.flush()
	final := e.snapshot(e.lastTime, true)
	e.snapshots++
	e.publishSnapshot(final)
	e.publishArrivals(true)
	e.publishRuntime()
	sp.SetInt("records", e.records)
	sp.SetInt("sessions", e.closed)
	sp.SetInt("snapshots", e.snapshots)
	reg.Counter("stream.records").Add(e.records)
	reg.Counter("stream.parse_errors").Add(e.ingest.Rejected)
	reg.Counter("stream.oversized_rejects").Add(e.ingest.Oversized)
	reg.Counter("stream.clamped_timestamps").Add(e.ingest.Clamped)
	reg.Counter("stream.sessions_closed").Add(e.closed)
	reg.Counter("stream.snapshots").Add(e.snapshots)
	return final, nil
}

// observe folds one record into the engine state, emitting any
// snapshot whose trace-time boundary the record crosses. Backwards
// timestamps are clamped to the stream clock before anything
// else sees the record (the per-second trackers would corrupt on
// reversed time), or rejected outright in strict mode.
//
// This is the engine's per-record fold: every allocation here is
// multiplied by the trace length (DESIGN.md §13). The record is the
// chunk's own slot, taken by reference rather than copied; a clamp
// rewrites its Time in place.
//
//hot:path
func (e *Engine) observe(ctx context.Context, rec *weblog.Record, emit func(*Snapshot) error) error {
	if e.started && rec.Time.Before(e.lastTime) {
		if e.cfg.Mode == ModeStrict {
			return fmt.Errorf("stream: strict mode: non-monotonic timestamp %v after %v (host %s)",
				rec.Time, e.lastTime, rec.Host)
		}
		rec.Time = e.lastTime
		e.ingest.Clamped++
	}
	if !e.started {
		e.started = true
		e.firstTime = rec.Time
		if e.cfg.SnapshotEvery > 0 {
			e.nextSnapshot = rec.Time.Add(e.cfg.SnapshotEvery)
		}
	}
	// Snapshot boundaries strictly precede the records at or after
	// them, so a snapshot always describes the data before its boundary.
	if e.cfg.SnapshotEvery > 0 && !rec.Time.Before(e.nextSnapshot) {
		if err := fpSnapshot.Check(ctx); err != nil {
			return fmt.Errorf("stream: snapshot at %v: %w", e.nextSnapshot, err)
		}
		snap := e.snapshot(e.nextSnapshot, false)
		e.snapshots++
		e.publishSnapshot(snap)
		for !rec.Time.Before(e.nextSnapshot) {
			e.nextSnapshot = e.nextSnapshot.Add(e.cfg.SnapshotEvery)
		}
		if emit != nil {
			if err := emit(snap); err != nil {
				return err
			}
		}
	}
	openedBefore := e.streamer.OpenedTotal()
	closed, err := e.streamer.ObserveClampedRef(rec)
	if err != nil {
		return err
	}
	for i := range closed {
		e.noteClosed(&closed[i])
	}
	sec := rec.Time.Unix()
	opened := e.streamer.OpenedTotal() > openedBefore
	if opened {
		e.sessArr.observe(sec)
	}
	e.reqArr.observe(sec)
	if e.arrivals != nil {
		e.arrivals.observe(sec, opened)
	}
	e.records++
	e.bytes += rec.Bytes
	e.lastTime = rec.Time
	return nil
}

// reject accounts one rejected line: fatal in strict mode, otherwise
// counted, sampled and quarantined.
func (e *Engine) reject(pe weblog.ParseError) error {
	if e.cfg.Mode == ModeStrict {
		return fmt.Errorf("stream: strict mode: line %d: %w", pe.LineNumber, pe.Err)
	}
	e.ingest.Rejected++
	if errors.Is(pe.Err, weblog.ErrOversized) {
		e.ingest.Oversized++
	} else {
		e.ingest.Malformed++
	}
	if len(e.ingest.Samples) < ingestSampleN {
		e.ingest.Samples = append(e.ingest.Samples, fmt.Sprintf("line %d: %v", pe.LineNumber, pe.Err))
	}
	if e.quar != nil {
		if _, err := io.WriteString(e.quar, pe.Line+"\n"); err != nil {
			return fmt.Errorf("stream: quarantine write: %w", err)
		}
	}
	return nil
}
