// Package serve is the live ingestion server behind `fullweb serve`:
// CLF log lines arrive from many concurrent sources over HTTP (POST
// /ingest, chunked and gzip bodies) and a raw line-oriented TCP
// listener, flow through the bounded multi-source intake queue into
// the stream engine, and the what-if query layer (GET
// /whatif) feeds the engine's published arrival series into the
// queueing and admission models — online capacity answers that never
// touch live engine state (DESIGN.md §15).
//
// The standing determinism contract: the same lines delivered over N
// sources in any interleaving produce the same final totals as
// `fullweb stream` over the concatenated file, because the intake
// reassembles the per-source streams in declared order before the
// engine sees a byte.
package serve

import (
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync/atomic"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
)

// The intake's registered fault-injection sites (DESIGN.md §11, §15):
//
//	serve.accept — refuse an intake request / TCP connection at accept
//	serve.read   — fail mid-body while reading a delivery
//	serve.flush  — fail a source-completion flush (source stays open)
var (
	fpAccept = faultpoint.NewSite("serve.accept")
	fpRead   = faultpoint.NewSite("serve.read")
	fpFlush  = faultpoint.NewSite("serve.flush")
)

// DefaultBufferBytes is the per-source intake buffer cap: enough to
// hold a large delivery burst for a source waiting its turn in the
// fold order without letting N sources exhaust memory.
const DefaultBufferBytes int64 = 32 << 20

// intakeReadChunk is the read granularity for intake bodies and TCP
// streams — also the granularity at which the serve.read fault site
// and TCP backpressure apply.
const intakeReadChunk = 64 << 10

// Config parameterizes the serve subsystem.
type Config struct {
	// Sources declares the intake sources in fold order (required,
	// order is the determinism anchor).
	Sources []string
	// BufferBytes caps each source's intake buffer; 0 means
	// DefaultBufferBytes.
	BufferBytes int64
	// WantTCP declares that a raw TCP intake listener will be started;
	// readiness then requires it bound.
	WantTCP bool
	// Engine is the stream engine configuration. Telemetry is
	// overwritten with the serve holder; ArrivalWindow defaults to
	// stream.DefaultArrivalWindow when 0.
	Engine stream.Config
	// Checkpoint, when non-nil, resumes the engine from it (the caller
	// loads and validates the file).
	Checkpoint *stream.Checkpoint
	// WAL, when non-nil, enables the durable intake journal: every
	// delivery is journaled before acknowledgment, redeliveries are
	// deduplicated by delivery ID, and Run replays the journal into
	// the fold on restart (DESIGN.md §16).
	WAL *WALConfig
	// Health parameterizes the health rules; Intake is forced on.
	Health telemetry.HealthConfig
	// Clock stamps publications; nil means obs.SystemClock().
	Clock obs.Clock
	// Log receives operational messages (accept errors, drain
	// progress); nil discards them.
	Log io.Writer
}

// Server composes the intake queue, the stream engine and the query
// surface. Lifecycle: New, StartHTTP (+ StartTCP), Run (blocks until
// the intake drains), Drain from a signal handler.
type Server struct {
	cfg    Config
	holder *telemetry.Holder
	health *telemetry.Health
	tsrv   *telemetry.Server
	intake *intake
	engine *stream.Engine
	mux    *http.ServeMux

	// ctx carries the fault-injection set for the intake sites; set by
	// Run (the sites are inert before it).
	ctx atomic.Pointer[context.Context]

	httpBound atomic.Bool
	tcpBound  atomic.Bool

	// wal is the durable intake journal, opened (and replayed) by Run;
	// walReady gates /readyz until it is.
	wal      *walManager
	walReady atomic.Bool

	httpSrv *http.Server
	tcpLn   net.Listener
}

// New validates the configuration and builds the server (no listeners
// yet).
func New(cfg Config) (*Server, error) {
	if cfg.Clock == nil {
		cfg.Clock = obs.SystemClock()
	}
	if cfg.BufferBytes == 0 {
		cfg.BufferBytes = DefaultBufferBytes
	}
	if cfg.Engine.ArrivalWindow == 0 {
		cfg.Engine.ArrivalWindow = stream.DefaultArrivalWindow
	}
	cfg.Health.Intake = true
	if cfg.WAL != nil {
		w := cfg.WAL.withDefaults()
		cfg.WAL = &w
		cfg.Health.WAL = true
	}
	s := &Server{cfg: cfg}
	s.holder = telemetry.NewHolder(cfg.Clock)
	s.health = telemetry.NewHealth(cfg.Health, s.holder, cfg.Engine.Metrics, cfg.Clock)
	in, err := newIntake(cfg.Sources, cfg.BufferBytes, cfg.Clock, s.holder, cfg.WAL != nil)
	if err != nil {
		return nil, err
	}
	s.intake = in
	cfg.Engine.Telemetry = s.holder
	if cfg.WAL != nil {
		// The supervisor rides the fold goroutine's runtime
		// publications: journal stats, gauges and the checkpoint
		// cadence refresh exactly when the fold's own view does.
		cfg.Engine.Telemetry = &walTelemetry{Holder: s.holder, srv: s}
	}
	if cfg.Checkpoint != nil {
		s.engine, err = stream.ResumeEngine(cfg.Engine, cfg.Checkpoint)
	} else {
		s.engine, err = stream.NewEngine(cfg.Engine)
	}
	if err != nil {
		return nil, err
	}
	s.tsrv = telemetry.NewServer(cfg.Engine.Metrics, s.holder, s.health)
	s.tsrv.SetReadyGate(s.readyGate)
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/ingest", s.handleIngest)
	s.mux.HandleFunc("/whatif", s.handleWhatIf)
	s.mux.Handle("/", s.tsrv.Handler())
	return s, nil
}

// Holder exposes the copy-on-publish holder (tests and the run
// report's what-if sweep read published values through it).
func (s *Server) Holder() *telemetry.Holder { return s.holder }

// Handler exposes the combined mux (intake + what-if + telemetry
// endpoints) for in-process tests.
func (s *Server) Handler() http.Handler { return s.mux }

// readyGate is the serve-mode /readyz contract: not ready until the
// HTTP intake listener — and the TCP listener, when one is declared —
// is bound. The telemetry server then additionally requires the first
// engine publication (DESIGN.md §15).
func (s *Server) readyGate() (bool, string) {
	if !s.httpBound.Load() {
		return false, "HTTP intake listener not bound"
	}
	if s.cfg.WantTCP && !s.tcpBound.Load() {
		return false, "TCP intake listener not bound"
	}
	if s.cfg.WAL != nil && !s.walReady.Load() {
		return false, "intake journal not open yet"
	}
	return true, ""
}

// StartHTTP serves the combined mux on ln in the background and marks
// the HTTP side bound.
func (s *Server) StartHTTP(ln net.Listener) {
	s.httpSrv = &http.Server{Handler: s.mux}
	srv := s.httpSrv
	//lint:allow rawgo server lifecycle, not an analysis fan-out; one goroutine that dies with the listener
	go func() { _ = srv.Serve(ln) }()
	s.httpBound.Store(true)
}

// StartTCP runs the raw-intake accept loop on ln in the background and
// marks the TCP side bound. Protocol: one line "fullweb-intake
// <source>\n", then raw CLF lines until the sender closes — the close
// marks the source complete. A full buffer simply stops the read loop
// (TCP pushback) until the engine drains space.
func (s *Server) StartTCP(ln net.Listener) {
	s.tcpLn = ln
	//lint:allow rawgo intake accept loop, not an analysis fan-out; dies when the listener closes
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if err := fpAccept.Check(s.runCtx()); err != nil {
				s.logf("serve: tcp accept refused: %v", err)
				conn.Close()
				continue
			}
			//lint:allow rawgo one goroutine per intake connection; bounded by the accept loop's lifetime
			go s.handleConn(conn)
		}
	}()
	s.tcpBound.Store(true)
}

// Run publishes the initial runtime view (the readiness signal), then
// folds the reassembled intake stream through the engine until every
// source drains, emitting each snapshot. It blocks until drain or
// error; ctx carries the fault-injection set for the intake sites.
func (s *Server) Run(ctx context.Context, emit func(*stream.Snapshot) error) (*stream.Snapshot, error) {
	s.ctx.Store(&ctx)
	if s.cfg.WAL != nil {
		wal, recovered, err := openWAL(ctx, *s.cfg.WAL, s.cfg.Sources, s.logf)
		if err != nil {
			return nil, err
		}
		// A checkpoint is only resumable over this journal if the
		// journal still holds every line the checkpoint skips —
		// otherwise acknowledged bytes were lost (power loss past the
		// sync horizon) and a silent splice would fold the wrong
		// concatenation.
		if s.cfg.Checkpoint != nil {
			var journaled int64
			for _, rec := range recovered {
				journaled += rec.lines
			}
			if skip := s.cfg.Checkpoint.SkipLines(); journaled < skip {
				wal.Close()
				return nil, fmt.Errorf("serve: journal holds %d lines but the checkpoint resumes at line %d — the journal lost acknowledged bytes; restore it or drop the checkpoint", journaled, skip)
			}
		}
		s.wal = wal
		s.intake.attachWAL(wal, recovered)
		s.walReady.Store(true)
		defer func() {
			if cerr := wal.Close(); cerr != nil {
				s.logf("serve: wal close: %v", cerr)
			}
		}()
		var resumed int64
		if s.cfg.Checkpoint != nil {
			resumed = s.cfg.Checkpoint.SkipLines()
		}
		s.holder.PublishWAL(wal.Stats(resumed, resumed))
	}
	// The engine's fold goroutine is the holder's single publisher;
	// this initial publication (before any chunk folds) is what lets
	// /readyz report ready on an idle, freshly bound server.
	s.holder.PublishRuntime(stream.RuntimeStats{})
	return s.engine.ProcessCtx(ctx, s.intake, emit)
}

// walTelemetry decorates the holder with the journal supervisor: the
// fold goroutine's runtime publications also refresh the journal's
// published stats, /metrics gauges and the WAL-growth checkpoint
// cadence. Snapshot and arrival publications pass through untouched.
type walTelemetry struct {
	*telemetry.Holder
	srv *Server
}

func (t *walTelemetry) PublishRuntime(rt stream.RuntimeStats) {
	t.Holder.PublishRuntime(rt)
	t.srv.superviseWAL(rt)
}

// superviseWAL is the supervisor's tick, run on each runtime
// publication: publish the journal view, refresh gauges, and request
// an engine checkpoint once enough journaled bytes are not yet
// covered by one — auto-checkpointing on a cadence tied to WAL growth
// so crash replay stays bounded.
func (s *Server) superviseWAL(rt stream.RuntimeStats) {
	wal := s.wal
	if wal == nil {
		return
	}
	st := wal.Stats(rt.Lines, rt.LastCheckpointLine)
	s.holder.PublishWAL(st)
	if reg := s.cfg.Engine.Metrics; reg != nil {
		reg.Gauge("serve.wal_journaled_bytes").Set(st.JournaledBytes)
		reg.Gauge("serve.wal_disk_bytes").Set(st.DiskBytes)
		reg.Gauge("serve.wal_lag_bytes").Set(st.LagBytes)
		reg.Gauge("serve.wal_segments").Set(st.Segments)
		shedding := int64(0)
		if st.Shedding {
			shedding = 1
		}
		reg.Gauge("serve.wal_shedding").Set(shedding)
	}
	if s.cfg.Engine.CheckpointPath != "" && st.CheckpointLagBytes >= s.cfg.WAL.CheckpointBytes {
		s.engine.RequestCheckpoint()
	}
}

// Drain begins graceful shutdown: stop accepting (close the TCP
// listener; /ingest starts refusing), force-complete every source and
// let Run fold what arrived. Safe to call from a signal handler
// goroutine; idempotent.
func (s *Server) Drain() {
	if s.tcpLn != nil {
		_ = s.tcpLn.Close()
	}
	s.intake.drain()
}

// Close shuts the HTTP server down (after Run has returned and the
// final snapshot is out).
func (s *Server) Close() error {
	if s.httpSrv == nil {
		return nil
	}
	return s.httpSrv.Close()
}

// runCtx returns the fault-carrying context Run installed (background
// before Run).
func (s *Server) runCtx() context.Context {
	if p := s.ctx.Load(); p != nil {
		return *p
	}
	return context.Background()
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log == nil {
		return
	}
	fmt.Fprintf(s.cfg.Log, format+"\n", args...)
}

// handleIngest is POST /ingest?source=NAME[&delivery=ID][&complete=1]:
// the body (identity or gzip per Content-Encoding, chunked accepted)
// is journaled and appended to the source's buffer atomically — all
// of it or none — so a 429 always means "retry this exact delivery".
// delivery=ID stamps the delivery for idempotent redelivery: a retry
// carrying an already-accepted ID is answered 200 with
// "duplicate": true and folds nothing. complete=1 marks the source
// finished after the append (an empty body with complete=1 is the
// pure completion signal).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", "POST")
		http.Error(w, "intake endpoint is POST-only", http.StatusMethodNotAllowed)
		return
	}
	ctx := s.runCtx()
	if err := fpAccept.Check(ctx); err != nil {
		http.Error(w, fmt.Sprintf("intake accept refused: %v", err), http.StatusServiceUnavailable)
		return
	}
	name := r.URL.Query().Get("source")
	if name == "" {
		http.Error(w, "missing ?source=", http.StatusBadRequest)
		return
	}
	delivery := r.URL.Query().Get("delivery")
	body := io.Reader(http.MaxBytesReader(w, r.Body, s.cfg.BufferBytes+1))
	if enc := r.Header.Get("Content-Encoding"); enc != "" {
		switch enc {
		case "gzip":
			zr, err := gzip.NewReader(body)
			if err != nil {
				http.Error(w, fmt.Sprintf("bad gzip body: %v", err), http.StatusBadRequest)
				return
			}
			defer zr.Close()
			body = zr
		case "identity":
		default:
			http.Error(w, fmt.Sprintf("unsupported Content-Encoding %q", enc), http.StatusUnsupportedMediaType)
			return
		}
	}
	data, err := s.readDelivery(ctx, body)
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			http.Error(w, fmt.Sprintf("delivery exceeds per-source buffer (%d bytes)", s.cfg.BufferBytes), http.StatusRequestEntityTooLarge)
			return
		}
		http.Error(w, fmt.Sprintf("reading body: %v", err), http.StatusInternalServerError)
		return
	}
	acceptedBytes := int64(len(data))
	duplicate := false
	if len(data) > 0 {
		err := s.intake.append(ctx, name, delivery, data, false)
		var dup *DuplicateDelivery
		switch {
		case err == nil:
		case errors.As(err, &dup):
			// Redelivery of an accepted delivery: acknowledge it again
			// (the retry still wants its completion side effect below)
			// but fold nothing.
			duplicate = true
			acceptedBytes = dup.Bytes
		default:
			writeIntakeError(w, err)
			return
		}
	}
	if r.URL.Query().Get("complete") == "1" {
		if err := fpFlush.Check(ctx); err != nil {
			http.Error(w, fmt.Sprintf("completion flush refused: %v", err), http.StatusServiceUnavailable)
			return
		}
		if err := s.intake.completeSource(ctx, name); err != nil {
			writeIntakeError(w, err)
			return
		}
	}
	w.Header().Set("Content-Type", "application/json")
	if duplicate {
		fmt.Fprintf(w, "{\n  \"source\": %q,\n  \"accepted_bytes\": %d,\n  \"duplicate\": true\n}\n", name, acceptedBytes)
		return
	}
	fmt.Fprintf(w, "{\n  \"source\": %q,\n  \"accepted_bytes\": %d\n}\n", name, acceptedBytes)
}

// readDelivery drains one delivery body in bounded chunks, consulting
// the serve.read fault site per chunk.
func (s *Server) readDelivery(ctx context.Context, r io.Reader) ([]byte, error) {
	var data []byte
	chunk := make([]byte, intakeReadChunk)
	for {
		if err := fpRead.Check(ctx); err != nil {
			return nil, err
		}
		n, err := r.Read(chunk)
		data = append(data, chunk[:n]...)
		if err == io.EOF {
			return data, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// writeIntakeError maps intake errors to their HTTP statuses: 429 with
// Retry-After for a full buffer, 404 for an undeclared source, 409
// (with the source's final accepted byte count) for a completed one,
// 503 while draining or while the journal is shedding or not yet open.
func writeIntakeError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBufferFull):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusTooManyRequests)
	case errors.Is(err, ErrUnknownSource):
		http.Error(w, err.Error(), http.StatusNotFound)
	case errors.Is(err, ErrSourceComplete):
		var cs *CompletedSource
		if errors.As(err, &cs) {
			// The final accepted byte count lets a retrying client
			// reconcile the 409 against its own offset.
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusConflict)
			fmt.Fprintf(w, "{\n  \"error\": \"source already complete\",\n  \"source\": %q,\n  \"accepted_bytes\": %d\n}\n", cs.Source, cs.Bytes)
			return
		}
		http.Error(w, err.Error(), http.StatusConflict)
	case errors.Is(err, ErrDraining):
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrWALShed), errors.Is(err, ErrWALNotReady):
		w.Header().Set("Retry-After", "1")
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
	case errors.Is(err, ErrOversizedDelivery):
		http.Error(w, err.Error(), http.StatusRequestEntityTooLarge)
	default:
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// handleConn serves one raw TCP intake connection: handshake line,
// then raw bytes appended with blocking backpressure until EOF, which
// completes the source. Mid-stream errors leave the source open (the
// sender may reconnect and continue); only a clean EOF flushes it.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	ctx := s.runCtx()
	name, rest, err := readHandshake(conn)
	if err != nil {
		s.logf("serve: tcp handshake: %v", err)
		return
	}
	if len(rest) > 0 {
		if err := s.intake.append(ctx, name, "", rest, true); err != nil {
			s.logf("serve: tcp %s: %v", name, err)
			return
		}
	}
	chunk := make([]byte, intakeReadChunk)
	for {
		if err := fpRead.Check(ctx); err != nil {
			s.logf("serve: tcp %s read refused: %v", name, err)
			return
		}
		n, rerr := conn.Read(chunk)
		if n > 0 {
			if aerr := s.intake.append(ctx, name, "", chunk[:n], true); aerr != nil {
				s.logf("serve: tcp %s: %v", name, aerr)
				return
			}
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			s.logf("serve: tcp %s read: %v", name, rerr)
			return
		}
	}
	if err := fpFlush.Check(ctx); err != nil {
		s.logf("serve: tcp %s completion flush refused: %v", name, err)
		return
	}
	if err := s.intake.completeSource(ctx, name); err != nil {
		s.logf("serve: tcp %s complete: %v", name, err)
	}
}

// tcpHandshakePrefix introduces a raw intake connection:
// "fullweb-intake <source>\n".
const tcpHandshakePrefix = "fullweb-intake "

// readHandshake reads the handshake line from a raw connection,
// returning the source name and any stream bytes read past the
// newline.
func readHandshake(conn net.Conn) (name string, rest []byte, err error) {
	buf := make([]byte, 0, 256)
	one := make([]byte, 256)
	for {
		n, rerr := conn.Read(one)
		buf = append(buf, one[:n]...)
		for i, b := range buf {
			if b == '\n' {
				line := string(buf[:i])
				if len(line) <= len(tcpHandshakePrefix) || line[:len(tcpHandshakePrefix)] != tcpHandshakePrefix {
					return "", nil, fmt.Errorf("bad handshake line %q (want %q<source>)", line, tcpHandshakePrefix)
				}
				return line[len(tcpHandshakePrefix):], append([]byte(nil), buf[i+1:]...), nil
			}
		}
		if rerr != nil {
			return "", nil, fmt.Errorf("reading handshake: %w", rerr)
		}
		if len(buf) > 4096 {
			return "", nil, fmt.Errorf("handshake line too long")
		}
	}
}
