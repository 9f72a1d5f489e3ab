// Checkpoint/resume for the streaming engine: a versioned, checksummed
// binary serialization (ckptcodec.go) of the full online state — the
// sessionizer's open sessions, Welford moments, quantile-sketch
// ladders, dyadic aggregated-variance levels, reservoir Hill state
// (with its PCG generator state), totals and ingest accounting —
// written atomically at snapshot cadence. A resumed engine continues
// from the exact raw-line boundary the checkpoint recorded and produces
// output byte-identical to an uninterrupted run (DESIGN.md §11).

package stream

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
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
//
// v6: the sessionizer's expiry list is gone (close order is canonical,
// so restore rebuilds it from the active sessions), and each reservoir
// carries its PCG generator state instead of a seed to replay.
const (
	checkpointMagic   = "fullweb-checkpoint"
	checkpointVersion = 6
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

// state captures the tracker into a fresh image. The engine captures
// through stateInto; state is the anchor statesync proves the
// checkpoint codec against.
func (t *secondTracker) state() secondState {
	var st secondState
	t.stateInto(&st)
	return st
}

// stateInto captures the tracker into dst, reusing its level slice.
func (t *secondTracker) stateInto(dst *secondState) {
	t.est.StateInto(&dst.Est)
	dst.Cur = t.cur
	dst.Count = t.count
	dst.Started = t.started
	dst.Flushed = t.flushed
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

// state captures the engine into a fresh image. Like every capture it
// shares the quantile levels with the live sketches, so it is for
// encoding, never for editing.
func (e *Engine) state() engineState {
	var st engineState
	e.captureInto(&st)
	return st
}

// captureInto captures the engine into dst, reusing the capacity of
// every slice an earlier capture left there: the reservoirs, quantile
// buffers and level lists, open sessions, arrival ring and aggregated-
// variance levels. The quantile levels themselves are shared, not
// copied (QuantileSketch.stateInto). Recaptured into the same image, it
// allocates only the reservoirs' generator states.
func (e *Engine) captureInto(dst *engineState) {
	dst.Config = fingerprint(e.cfg)
	dst.Lines = e.lines
	dst.QuarantineOffset = 0
	if e.quar != nil {
		dst.QuarantineOffset = e.quar.N
	}
	dst.Records = e.records
	dst.Bytes = e.bytes
	dst.Started = e.started
	dst.FirstTime = e.firstTime
	dst.LastTime = e.lastTime
	dst.NextSnapshot = e.nextSnapshot
	dst.Snapshots = e.snapshots
	e.ingest.detachInto(&dst.Ingest)
	e.reqArr.stateInto(&dst.ReqArr)
	e.sessArr.stateInto(&dst.SessArr)
	if e.arrivals == nil {
		dst.Arrivals = nil
	} else {
		if dst.Arrivals == nil {
			dst.Arrivals = new(arrivalState)
		}
		e.arrivals.stateInto(dst.Arrivals)
	}
	e.streamer.StateInto(&dst.Streamer)
	dst.Closed = e.closed
	if cap(dst.Chars) < len(e.chars) {
		dst.Chars = make([]charCheckpoint, len(e.chars))
	}
	dst.Chars = dst.Chars[:len(e.chars)]
	for i, c := range e.chars {
		cc := &dst.Chars[i]
		cc.Name = c.name
		cc.Moments = c.moments.State()
		c.quant.stateInto(&cc.Quant)
		c.hill.StateInto(&cc.Hill)
	}
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

// encodePayload writes the payload of a captured state to w through a
// fresh encoder and returns its SHA-256.
func encodePayload(w io.Writer, st *engineState) ([sha256.Size]byte, error) {
	return newPayloadEncoder().encode(w, st)
}

// payloadEncoder encodes payloads through one buffered writer, one
// SHA-256 state and one codec scratch buffer, reset for each payload,
// so a writer that keeps it allocates none of them per checkpoint.
type payloadEncoder struct {
	dst   io.Writer
	hash  hash.Hash
	codec ckptCodec
}

func newPayloadEncoder() *payloadEncoder {
	p := &payloadEncoder{hash: sha256.New()}
	p.codec = ckptCodec{enc: true, w: bufio.NewWriterSize(p, payloadBuffer), tmp: make([]byte, 0, binary.MaxVarintLen64)}
	return p
}

// Write is the buffered writer's sink: every byte goes to the
// destination and into the hash.
func (p *payloadEncoder) Write(b []byte) (int, error) {
	n, err := p.dst.Write(b)
	p.hash.Write(b[:n])
	return n, err
}

// encode writes the payload of a captured state to dst and returns its
// SHA-256.
func (p *payloadEncoder) encode(dst io.Writer, st *engineState) (sum [sha256.Size]byte, err error) {
	p.dst = dst
	p.hash.Reset()
	p.codec.w.Reset(p)
	if err := p.codec.encode(st); err != nil {
		return sum, fmt.Errorf("stream: encoding checkpoint: %w", err)
	}
	p.hash.Sum(sum[:0])
	return sum, nil
}

// checkpointWriter persists captured engine states off the fold
// goroutine. Its one goroutine encodes, hashes, writes, fsyncs and
// renames each capture while the fold carries on, at most one write in
// flight. A capture taken while a write is in flight becomes the
// pending capture, replacing (superseding) any earlier pending one,
// and goes to the writer once it is idle: the newest capture wins, and
// a superseded one is never written. At most two images circulate —
// the one in flight and the pending or free one — and the writer hands
// each back with its result for the next capture to refill, so
// captures at consecutive chunks allocate next to nothing. A chunk
// that folds with the writer idle and nothing to capture releases
// them: between sparse captures no image stays live. Results come
// back through done, read only by the fold goroutine, so checkpoint
// telemetry advances once a rename has committed and never before.
type checkpointWriter struct {
	path   string
	tmp    string
	jobs   chan *engineState     // capacity 1: handed over only to an idle writer
	done   chan checkpointResult // capacity 1: the writer never blocks on it
	exited chan struct{}
	// hold, when non-nil, keeps the first write from starting until it
	// is closed: a test seam for a writer that falls behind the fold.
	hold <-chan struct{}
	// enc is the writer goroutine's encoder, kept across writes.
	enc *payloadEncoder

	// The fold goroutine's view. busy: an image was handed over and its
	// result not yet collected. pending: the newest capture, not yet
	// handed over. free: images neither in flight nor pending. commits
	// and superseded count committed writes and replaced captures.
	busy       bool
	pending    *engineState
	free       []*engineState
	commits    *obs.Counter
	superseded *obs.Counter
}

// checkpointResult is one finished write: the image it wrote, returned
// for reuse, and the write's error.
type checkpointResult struct {
	st  *engineState
	err error
}

// newCheckpointWriter builds the writer for one ProcessCtx call; start
// launches it, and the caller must join it with joinCheckpointWriter
// on every return path.
func newCheckpointWriter(path string) *checkpointWriter {
	return &checkpointWriter{
		path:   path,
		tmp:    path + ".tmp",
		jobs:   make(chan *engineState, 1),
		done:   make(chan checkpointResult, 1),
		exited: make(chan struct{}),
		enc:    newPayloadEncoder(),
		free:   make([]*engineState, 0, 2),
	}
}

// start registers the writer's counters and launches its goroutine (a
// no-op for a nil writer).
func (w *checkpointWriter) start(ctx context.Context) {
	if w == nil {
		return
	}
	reg := obs.MetricsFrom(ctx)
	w.commits = reg.Counter("stream.checkpoints")
	w.superseded = reg.Counter("stream.checkpoints_superseded")
	//lint:allow rawgo checkpoint persistence, not an analysis fan-out; one goroutine that ProcessCtx joins on every return path
	go w.run(ctx)
}

// run is the writer goroutine: one atomic write per handed-over
// capture, in order, until the jobs channel closes.
func (w *checkpointWriter) run(ctx context.Context) {
	defer close(w.exited)
	for st := range w.jobs {
		if w.hold != nil {
			<-w.hold
			w.hold = nil
		}
		_, sp := obs.StartSpan(ctx, "stream.checkpoint_write")
		sp.SetInt("lines", st.Lines)
		err := w.save(st)
		sp.End()
		w.done <- checkpointResult{st: st, err: err}
	}
}

// save writes a captured state atomically: a temp file in the target
// directory, fsynced, then renamed over the destination — a crash
// mid-write leaves the previous checkpoint intact.
func (w *checkpointWriter) save(st *engineState) error {
	f, err := os.Create(w.tmp)
	if err != nil {
		return fmt.Errorf("stream: creating checkpoint: %w", err)
	}
	if err := w.writeFile(f, st); err != nil {
		f.Close()
		os.Remove(w.tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(w.tmp)
		return fmt.Errorf("stream: syncing checkpoint: %w", err)
	}
	if err := f.Close(); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("stream: closing checkpoint: %w", err)
	}
	if err := os.Rename(w.tmp, w.path); err != nil {
		os.Remove(w.tmp)
		return fmt.Errorf("stream: committing checkpoint: %w", err)
	}
	return nil
}

// writeFile writes a captured state to f in the WriteCheckpoint format
// without holding a copy of the payload: it streams into the file
// behind a placeholder header of the same length, overwritten once the
// sum is known.
func (w *checkpointWriter) writeFile(f *os.File, st *engineState) error {
	if _, err := f.WriteString(checkpointHeader([sha256.Size]byte{})); err != nil {
		return err
	}
	sum, err := w.enc.encode(f, st)
	if err != nil {
		return err
	}
	_, err = f.WriteAt([]byte(checkpointHeader(sum)), 0)
	return err
}

// collectCheckpoint collects the in-flight write's result — waiting
// for it when wait is set, otherwise only if it has already finished —
// and puts its image back on the free list. A commit advances the
// checkpoint telemetry and settles any pending RequestCheckpoint; a
// failed write drops the pending capture, which is never written, and
// returns its error.
func (e *Engine) collectCheckpoint(w *checkpointWriter, wait bool) error {
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
	w.free = append(w.free, res.st)
	if res.err != nil {
		if w.pending != nil {
			w.free = append(w.free, w.pending)
			w.pending = nil
		}
		return res.err
	}
	e.noteCheckpoint(res.st.Lines)
	e.ckptReq.Store(false)
	w.commits.Inc()
	return nil
}

// handOver gives the pending capture to an idle writer.
func (w *checkpointWriter) handOver() {
	if w.busy || w.pending == nil {
		return
	}
	w.jobs <- w.pending
	w.pending = nil
	w.busy = true
}

// checkpointAtChunk runs the checkpoint cadence after a folded chunk —
// an exact line boundary. It never waits for the writer: it collects a
// finished write, captures if the chunk crossed a snapshot boundary
// (or, with nothing in flight or pending, if a RequestCheckpoint is
// outstanding), and hands the pending capture to an idle writer. A
// chunk with nothing to capture, nothing in flight and nothing pending
// releases the free images.
func (e *Engine) checkpointAtChunk(ctx context.Context, w *checkpointWriter, boundary bool) error {
	if w == nil {
		return nil
	}
	if err := e.collectCheckpoint(w, false); err != nil {
		return err
	}
	switch {
	case boundary || (e.ckptReq.Load() && !w.busy && w.pending == nil):
		if err := e.captureCheckpoint(ctx, w); err != nil {
			return err
		}
	case !w.busy && w.pending == nil:
		// Captures are sparse here: let the images go rather than hold
		// them, live, until the next one.
		clear(w.free)
		w.free = w.free[:0]
	}
	w.handOver()
	return nil
}

// captureCheckpoint consults the stream.checkpoint fault site, then
// captures the engine state as the pending capture: into the pending
// image when there is one, superseding it, otherwise into a free
// image. The capture answers every RequestCheckpoint made before it.
func (e *Engine) captureCheckpoint(ctx context.Context, w *checkpointWriter) error {
	if err := fpCheckpoint.Check(ctx); err != nil {
		return fmt.Errorf("stream: checkpoint at line %d: %w", e.lines, err)
	}
	e.ckptReq.Store(false)
	st := w.pending
	switch n := len(w.free); {
	case st != nil:
		w.superseded.Inc()
	case n > 0:
		st, w.free = w.free[n-1], w.free[:n-1]
	default:
		st = new(engineState)
	}
	_, sp := obs.StartSpan(ctx, "stream.checkpoint")
	sp.SetInt("lines", e.lines)
	e.captureInto(st)
	sp.End()
	w.pending = st
	return nil
}

// joinCheckpointWriter finishes the writer on every return path (a
// no-op for a nil writer): it waits for the write in flight, then
// writes the pending capture, then stops the writer, so the file holds
// the last capture. It returns the failed write's error; a failure
// drops the pending capture, as a writer that wrote every capture in
// turn would have stopped there.
func (e *Engine) joinCheckpointWriter(w *checkpointWriter) error {
	if w == nil {
		return nil
	}
	err := e.collectCheckpoint(w, true)
	if w.pending != nil {
		w.handOver()
		err = e.collectCheckpoint(w, true)
	}
	close(w.jobs)
	<-w.exited
	return err
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
		// allocations and counts are cross-checked, so neither is
		// taken on trust.
		fresh := c.hill.State()
		if cc.Quant.Cap != c.quant.Cap() || cc.Hill.Res.Cap != fresh.Res.Cap ||
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
