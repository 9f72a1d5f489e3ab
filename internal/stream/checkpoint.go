// Checkpoint/resume for the streaming engine: a versioned, checksummed
// binary serialization (ckptcodec.go) of the full online state —
// the sessionizer heap, Welford moments, quantile-sketch ladders,
// dyadic aggregated-variance levels, reservoir Hill state (with RNG
// replay), totals and ingest accounting — written atomically at
// snapshot cadence. A resumed engine continues from the exact raw-line
// boundary the checkpoint recorded and produces output byte-identical
// to an uninterrupted run (DESIGN.md §11).

package stream

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"time"

	"fullweb/internal/heavytail"
	"fullweb/internal/lrd"
	"fullweb/internal/obs"
	"fullweb/internal/session"
)

// checkpointMagic and checkpointVersion frame the header line. The
// version bumps on ANY change to the serialized layout; a loader never
// guesses at unknown versions.
//
// v2: per-shard state layout (Shards []shardCheckpoint), mergeable
// quantile sketch replacing the three P² marker sets, and the Shards /
// QuantileCap fingerprint fields.
//
// v3: the optional arrival-ring state (Arrivals) and the ArrivalWindow
// fingerprint field behind the serve-mode what-if layer.
//
// v4: the same fields in a binary payload instead of JSON. v3 files are
// rejected, not converted: a checkpoint is crash-recovery state.
//
// v5: one unpartitioned state. The shard list and the Shards
// fingerprint field are gone; the sessionizer, closed-session count
// and characteristics sit at the end of the payload.
const (
	checkpointMagic   = "fullweb-checkpoint"
	checkpointVersion = 5
)

// ConfigFingerprint is the engine-config fingerprint embedded in
// every checkpoint and in run reports. Resume requires an exact
// match: these are the parameters that shape the online state itself.
// Workers and chunk geometry are deliberately absent — the determinism
// contract makes results identical across them, so a run may resume
// with a different pool size or chunk shape.
type ConfigFingerprint struct {
	Threshold        time.Duration `json:"threshold"`
	SnapshotEvery    time.Duration `json:"snapshot_every"`
	ReservoirCap     int           `json:"reservoir_cap"`
	QuantileCap      int           `json:"quantile_cap"`
	Seed             int64         `json:"seed"`
	HillTailFraction float64       `json:"hill_tail_fraction"`
	HillRelTol       float64       `json:"hill_rel_tol"`
	AggVarLevels     int           `json:"agg_var_levels"`
	Mode             string        `json:"mode"`
	Budget           Budget        `json:"budget"`
	MaxFieldBytes    int           `json:"max_field_bytes"`
	ArrivalWindow    int           `json:"arrival_window"`
}

// Fingerprint derives the resume-compatibility fingerprint of the
// config, normalizing defaulted values — also what run reports embed
// as the run's configuration record.
func (cfg Config) Fingerprint() ConfigFingerprint { return fingerprint(cfg) }

// fingerprint derives the resume-compatibility fingerprint of a
// config, normalizing defaulted values.
func fingerprint(cfg Config) ConfigFingerprint {
	levels := cfg.AggVarLevels
	if levels <= 0 {
		levels = lrd.DefaultAggVarLevels
	}
	return ConfigFingerprint{
		Threshold:        cfg.Threshold,
		SnapshotEvery:    cfg.SnapshotEvery,
		ReservoirCap:     cfg.ReservoirCap,
		QuantileCap:      normalizeQuantileCap(cfg.QuantileCap),
		Seed:             cfg.Seed,
		HillTailFraction: cfg.HillTailFraction,
		HillRelTol:       cfg.HillRelTol,
		AggVarLevels:     levels,
		Mode:             cfg.Mode.String(),
		Budget:           cfg.Budget,
		MaxFieldBytes:    cfg.Chunk.MaxFieldBytes,
		ArrivalWindow:    cfg.ArrivalWindow,
	}
}

// secondState is the checkpointable image of a secondTracker.
type secondState struct {
	Est     lrd.AggVarState
	Cur     int64
	Count   float64
	Started bool
	Flushed bool
}

func (t *secondTracker) state() secondState {
	return secondState{Est: t.est.State(), Cur: t.cur, Count: t.count, Started: t.started, Flushed: t.flushed}
}

func (t *secondTracker) restore(st secondState) error {
	est, err := lrd.RestoreOnlineAggVar(st.Est)
	if err != nil {
		return err
	}
	t.est = est
	t.cur = st.Cur
	t.count = st.Count
	t.started = st.Started
	t.flushed = st.Flushed
	return nil
}

// charCheckpoint is the checkpointable image of one characteristic's
// estimators.
type charCheckpoint struct {
	Name    string
	Moments WelfordState
	Quant   QuantileSketchState
	Hill    heavytail.OnlineHillState
}

// engineState is the full serialized engine: the clocks, totals and
// arrival estimators, the sessionizer and the characteristic sketches.
type engineState struct {
	Config           ConfigFingerprint
	Lines            int64
	QuarantineOffset int64
	Records          int64
	Bytes            int64
	Started          bool
	FirstTime        time.Time
	LastTime         time.Time
	NextSnapshot     time.Time
	Snapshots        int64
	Ingest           IngestStats
	ReqArr           secondState
	SessArr          secondState
	Arrivals         *arrivalState
	Streamer         session.StreamerState
	Closed           int64
	Chars            []charCheckpoint
}

// Checkpoint is a loaded, checksum-verified engine checkpoint.
type Checkpoint struct {
	state engineState
}

// SkipLines returns the raw-line resume position: the number of input
// lines the checkpointed run had fully consumed.
func (cp *Checkpoint) SkipLines() int64 { return cp.state.Lines }

// QuarantineOffset returns the quarantine sink's byte offset at the
// checkpoint; resume truncates the quarantine file to this length so
// re-processed rejects are not duplicated.
func (cp *Checkpoint) QuarantineOffset() int64 { return cp.state.QuarantineOffset }

// state captures the engine.
func (e *Engine) state() engineState {
	st := engineState{
		Config:       fingerprint(e.cfg),
		Lines:        e.lines,
		Records:      e.records,
		Bytes:        e.bytes,
		Started:      e.started,
		FirstTime:    e.firstTime,
		LastTime:     e.lastTime,
		NextSnapshot: e.nextSnapshot,
		Snapshots:    e.snapshots,
		Ingest:       e.ingest.detached(),
		ReqArr:       e.reqArr.state(),
		SessArr:      e.sessArr.state(),
		Streamer:     e.streamer.State(),
		Closed:       e.closed,
		Chars:        make([]charCheckpoint, 0, len(e.chars)),
	}
	if e.arrivals != nil {
		ast := e.arrivals.state()
		st.Arrivals = &ast
	}
	if e.quar != nil {
		st.QuarantineOffset = e.quar.N
	}
	for _, c := range e.chars {
		st.Chars = append(st.Chars, charCheckpoint{
			Name:    c.name,
			Moments: c.moments.State(),
			Quant:   c.quant.State(),
			Hill:    c.hill.State(),
		})
	}
	return st
}

// WriteCheckpoint serializes the engine: a one-line header binding the
// format version and the payload's SHA-256, then the binary payload.
func (e *Engine) WriteCheckpoint(w io.Writer) error {
	st := e.state()
	var payload bytes.Buffer
	sum, err := encodePayload(&payload, &st)
	if err != nil {
		return err
	}
	if _, err := io.WriteString(w, checkpointHeader(sum)); err != nil {
		return err
	}
	_, err = w.Write(payload.Bytes())
	return err
}

// checkpointHeader is the header line for a payload with the given
// SHA-256. Its length does not depend on the sum.
func checkpointHeader(sum [sha256.Size]byte) string {
	return fmt.Sprintf("%s v%d sha256=%s\n", checkpointMagic, checkpointVersion, hex.EncodeToString(sum[:]))
}

// payloadBuffer is the encode buffer between the codec and the
// destination plus hash.
const payloadBuffer = 64 << 10

// encodePayload writes the payload of a captured state to w and
// returns its SHA-256.
func encodePayload(w io.Writer, st *engineState) (sum [sha256.Size]byte, err error) {
	h := sha256.New()
	if err := encodeState(bufio.NewWriterSize(io.MultiWriter(w, h), payloadBuffer), st); err != nil {
		return sum, fmt.Errorf("stream: encoding checkpoint: %w", err)
	}
	h.Sum(sum[:0])
	return sum, nil
}

// SaveCheckpoint writes the checkpoint atomically: a temp file in the
// target directory, fsynced, then renamed over the destination — a
// crash mid-write leaves the previous checkpoint intact.
func (e *Engine) SaveCheckpoint(path string) error {
	st := e.state()
	return saveCheckpoint(path, &st)
}

// saveCheckpoint is SaveCheckpoint for a captured state.
func saveCheckpoint(path string, st *engineState) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return fmt.Errorf("stream: creating checkpoint: %w", err)
	}
	if err := writeCheckpointFile(f, st); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("stream: committing checkpoint: %w", err)
	}
	return nil
}

// writeCheckpointFile writes a captured state to f in the
// WriteCheckpoint format without holding a copy of the payload: it
// streams into the file behind a placeholder header of the same
// length, overwritten once the sum is known.
func writeCheckpointFile(f *os.File, st *engineState) error {
	if _, err := f.WriteString(checkpointHeader([sha256.Size]byte{})); err != nil {
		return err
	}
	sum, err := encodePayload(f, st)
	if err != nil {
		return err
	}
	_, err = f.WriteAt([]byte(checkpointHeader(sum)), 0)
	return err
}

// checkpointWriter persists captured engine states off the fold
// goroutine. Its one goroutine encodes, hashes, writes, fsyncs and
// renames each capture while the fold carries on; at most one write is
// in flight, because the fold settles the previous write before it
// hands over the next capture. Results come back through done, read
// only by the fold goroutine, so checkpoint telemetry advances once a
// rename has committed and never before.
type checkpointWriter struct {
	path   string
	jobs   chan *engineState
	done   chan checkpointResult // capacity 1: the writer never blocks on it
	exited chan struct{}
	// busy is the fold goroutine's view: a capture was handed over and
	// its result not yet settled.
	busy bool
}

// checkpointResult is one finished write: the raw-line position the
// capture recorded, and the write's error.
type checkpointResult struct {
	lines int64
	err   error
}

// startCheckpointWriter starts the writer for one ProcessCtx call; the
// caller must join it with joinCheckpointWriter on every return path.
func startCheckpointWriter(ctx context.Context, path string) *checkpointWriter {
	w := &checkpointWriter{
		path:   path,
		jobs:   make(chan *engineState),
		done:   make(chan checkpointResult, 1),
		exited: make(chan struct{}),
	}
	//lint:allow rawgo checkpoint persistence, not an analysis fan-out; one goroutine that ProcessCtx joins on every return path
	go w.run(ctx)
	return w
}

// run is the writer goroutine: one atomic write per capture, in
// order, until the jobs channel closes.
func (w *checkpointWriter) run(ctx context.Context) {
	defer close(w.exited)
	for st := range w.jobs {
		_, sp := obs.StartSpan(ctx, "stream.checkpoint_write")
		sp.SetInt("lines", st.Lines)
		err := saveCheckpoint(w.path, st)
		sp.End()
		w.done <- checkpointResult{lines: st.Lines, err: err}
	}
}

// settleCheckpoint collects the in-flight write's result — waiting for
// it when wait is set, otherwise only if it has already finished. A
// commit advances the checkpoint telemetry and settles any pending
// RequestCheckpoint; a failed write returns its error.
func (e *Engine) settleCheckpoint(ctx context.Context, w *checkpointWriter, wait bool) error {
	if !w.busy {
		return nil
	}
	var res checkpointResult
	if wait {
		res = <-w.done
	} else {
		select {
		case res = <-w.done:
		default:
			return nil
		}
	}
	w.busy = false
	if res.err != nil {
		return res.err
	}
	e.noteCheckpoint(res.lines)
	e.ckptReq.Store(false)
	obs.MetricsFrom(ctx).Counter("stream.checkpoints").Inc()
	return nil
}

// checkpointAtChunk runs the checkpoint cadence after a folded chunk —
// an exact line boundary. A chunk that crossed a snapshot boundary
// always checkpoints; otherwise a pending RequestCheckpoint does, once
// no write is in flight.
func (e *Engine) checkpointAtChunk(ctx context.Context, w *checkpointWriter, boundary bool) error {
	if w == nil {
		return nil
	}
	if err := e.settleCheckpoint(ctx, w, false); err != nil {
		return err
	}
	if !boundary && (w.busy || !e.ckptReq.Load()) {
		return nil
	}
	return e.saveCheckpointCtx(ctx, w)
}

// saveCheckpointCtx consults the stream.checkpoint fault site, waits
// for the previous write, captures the engine state and hands it to
// the writer. The capture answers every RequestCheckpoint made before
// it.
func (e *Engine) saveCheckpointCtx(ctx context.Context, w *checkpointWriter) error {
	if err := fpCheckpoint.Check(ctx); err != nil {
		return fmt.Errorf("stream: checkpoint at line %d: %w", e.lines, err)
	}
	if err := e.settleCheckpoint(ctx, w, true); err != nil {
		return err
	}
	e.ckptReq.Store(false)
	_, sp := obs.StartSpan(ctx, "stream.checkpoint")
	sp.SetInt("lines", e.lines)
	st := e.state()
	sp.End()
	w.jobs <- &st
	w.busy = true
	return nil
}

// joinCheckpointWriter stops the writer after its last write and
// returns that write's error (nil for a nil writer).
func (e *Engine) joinCheckpointWriter(ctx context.Context, w *checkpointWriter) error {
	if w == nil {
		return nil
	}
	close(w.jobs)
	<-w.exited
	return e.settleCheckpoint(ctx, w, true)
}

// ReadCheckpoint parses and verifies a checkpoint stream: magic,
// version, then the SHA-256 of the payload against the header.
func ReadCheckpoint(r io.Reader) (*Checkpoint, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("stream: reading checkpoint: %w", err)
	}
	header, payload, ok := bytes.Cut(data, []byte("\n"))
	if !ok {
		return nil, fmt.Errorf("stream: checkpoint has no header line")
	}
	var version int
	var sumHex string
	if n, err := fmt.Sscanf(string(header), checkpointMagic+" v%d sha256=%s", &version, &sumHex); err != nil || n != 2 {
		return nil, fmt.Errorf("stream: malformed checkpoint header %q", string(header))
	}
	if version != checkpointVersion {
		return nil, fmt.Errorf("stream: checkpoint version v%d, this build reads v%d", version, checkpointVersion)
	}
	sum := sha256.Sum256(payload)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("stream: checkpoint checksum mismatch (corrupt or truncated file)")
	}
	st, err := decodeState(payload)
	if err != nil {
		return nil, fmt.Errorf("stream: decoding checkpoint: %w", err)
	}
	return &Checkpoint{state: st}, nil
}

// LoadCheckpoint reads and verifies a checkpoint file.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("stream: opening checkpoint: %w", err)
	}
	defer f.Close()
	return ReadCheckpoint(f)
}

// ResumeEngine rebuilds an engine from a verified checkpoint. The
// config must carry the same fingerprint the checkpoint was written
// under (worker count and chunk geometry are free to differ); the
// returned engine's chunk config is primed to skip the already
// consumed lines, so the caller simply re-opens the same input and
// calls ProcessCtx.
func ResumeEngine(cfg Config, cp *Checkpoint) (*Engine, error) {
	if got, want := fingerprint(cfg), cp.state.Config; got != want {
		return nil, fmt.Errorf("stream: config fingerprint mismatch: run has %+v, checkpoint has %+v", got, want)
	}
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	st := cp.state
	if err := e.reqArr.restore(st.ReqArr); err != nil {
		return nil, fmt.Errorf("stream: restoring request arrivals: %w", err)
	}
	if err := e.sessArr.restore(st.SessArr); err != nil {
		return nil, fmt.Errorf("stream: restoring session arrivals: %w", err)
	}
	// The fingerprint match above guarantees the ring exists exactly
	// when the checkpoint carries one (ArrivalWindow is part of it).
	if e.arrivals != nil && st.Arrivals != nil {
		if err := e.arrivals.restore(*st.Arrivals); err != nil {
			return nil, err
		}
	}
	if e.streamer, err = session.RestoreStreamer(st.Streamer); err != nil {
		return nil, fmt.Errorf("stream: restoring sessionizer: %w", err)
	}
	e.closed = st.Closed
	if len(st.Chars) != len(e.chars) {
		return nil, fmt.Errorf("stream: checkpoint holds %d characteristics, engine has %d", len(st.Chars), len(e.chars))
	}
	for i, cc := range st.Chars {
		c := e.chars[i]
		if cc.Name != c.name {
			return nil, fmt.Errorf("stream: characteristic %d is %q in checkpoint, %q in engine", i, cc.Name, c.name)
		}
		// The sketches must have the geometry this engine builds and
		// have seen exactly the closed sessions: capacities size
		// allocations and the Hill count sets the length of the
		// reservoir's RNG replay, so neither is taken on trust.
		fresh := c.hill.State()
		if cc.Quant.Cap != c.quant.Cap() || cc.Hill.Res.Cap != fresh.Res.Cap || cc.Hill.Res.Seed != fresh.Res.Seed ||
			cc.Hill.TailFraction != fresh.TailFraction || cc.Hill.RelTol != fresh.RelTol {
			return nil, fmt.Errorf("stream: %s sketch geometry does not match the engine config", c.name)
		}
		if cc.Moments.N != st.Closed || cc.Quant.N != st.Closed || cc.Hill.Dropped < 0 || cc.Hill.Res.Seen+cc.Hill.Dropped != st.Closed {
			return nil, fmt.Errorf("stream: %s sketch counts disagree with the %d closed sessions", c.name, st.Closed)
		}
		c.moments = RestoreWelford(cc.Moments)
		if c.quant, err = RestoreQuantileSketch(cc.Quant); err != nil {
			return nil, fmt.Errorf("stream: restoring %s quantiles: %w", c.name, err)
		}
		if c.hill, err = heavytail.RestoreOnlineHill(cc.Hill); err != nil {
			return nil, err
		}
	}
	e.lines = st.Lines
	e.records = st.Records
	e.bytes = st.Bytes
	e.started = st.Started
	e.firstTime = st.FirstTime
	e.lastTime = st.LastTime
	e.nextSnapshot = st.NextSnapshot
	e.snapshots = st.Snapshots
	e.ingest = st.Ingest
	if e.quar != nil {
		e.quar.N = st.QuarantineOffset
	}
	// ckptReq is runtime supervision state (serve's WAL cadence), never
	// carried in the image: a resumed engine starts with no pending
	// out-of-band checkpoint request.
	e.ckptReq.Store(false)
	e.cfg.Chunk.SkipLines = st.Lines
	return e, nil
}
