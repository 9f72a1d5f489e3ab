package obs

import (
	"bufio"
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
)

// CLIConfig is the shared flag surface of the observability layer —
// fullweb analyze/fit/sessions, paperrepro and examples/quickstart all
// register the same four flags and call Start.
type CLIConfig struct {
	// Progress streams a live per-stage tree to stderr.
	Progress bool
	// TracePath exports finished spans as JSONL (one object per line,
	// stable field order).
	TracePath string
	// MetricsPath writes the final metrics registry snapshot as JSON.
	MetricsPath string
	// PprofAddr serves net/http/pprof on this address for the run's
	// lifetime (e.g. "localhost:6060").
	PprofAddr string
	// WantRegistry forces a live metrics registry even when -metrics is
	// not set. Front ends that scrape the registry while the run is in
	// flight (fullweb stream -listen, run reports) set it before Start
	// so instruments exist to read.
	WantRegistry bool
}

// RegisterFlags adds the observability flags to a flag set.
func (c *CLIConfig) RegisterFlags(fs *flag.FlagSet) {
	fs.BoolVar(&c.Progress, "progress", false, "stream a live per-stage span tree to stderr")
	fs.StringVar(&c.TracePath, "trace", "", "write spans as JSONL to this file")
	fs.StringVar(&c.MetricsPath, "metrics", "", "write the final metrics snapshot as JSON to this file")
	fs.StringVar(&c.PprofAddr, "pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// Session is a running observability setup: the tracer and registry to
// thread into the engine (either may be nil — the no-op defaults),
// plus the output files to finalize. Close is idempotent.
type Session struct {
	Tracer  *Tracer
	Metrics *Registry

	progress  *Progress
	stderr    io.Writer
	traceFile *os.File
	traceBuf  *bufio.Writer
	metrics   string
	pprofLn   net.Listener
	closed    bool
}

// Start builds a session from the parsed flags. clock stamps spans —
// cmd/ injects SystemClock(); tests inject a ManualClock. stderr
// receives the -progress stream. With no flags set the session is
// inert: Context is the identity and Close a no-op.
func (c *CLIConfig) Start(clock Clock, stderr io.Writer) (*Session, error) {
	s := &Session{stderr: stderr, metrics: c.MetricsPath}
	if c.MetricsPath != "" || c.WantRegistry {
		s.Metrics = NewRegistry()
	}
	var sinks MultiSink
	if c.Progress {
		s.progress = NewProgress(stderr)
		sinks = append(sinks, s.progress)
	}
	if c.TracePath != "" {
		f, err := os.Create(c.TracePath)
		if err != nil {
			return nil, fmt.Errorf("obs: creating trace file: %w", err)
		}
		s.traceFile = f
		s.traceBuf = bufio.NewWriter(f)
		sinks = append(sinks, NewJSONLWriter(s.traceBuf))
	}
	// Tracing doubles as the per-stage duration feed: when a metrics
	// registry exists, every finished span lands in a stage histogram,
	// so -metrics carries the time breakdown even without -trace.
	if s.Metrics != nil {
		sinks = append(sinks, stageDurations{s.Metrics})
	}
	if len(sinks) > 0 {
		s.Tracer = NewTracer(clock, sinks)
	}
	if c.PprofAddr != "" {
		ln, err := net.Listen("tcp", c.PprofAddr)
		if err != nil {
			return nil, fmt.Errorf("obs: pprof listener: %w", err)
		}
		s.pprofLn = ln
		fmt.Fprintf(stderr, "pprof: http://%s/debug/pprof/\n", ln.Addr())
		//lint:allow rawgo pprof server lifecycle, not an analysis fan-out; bounded to one goroutine that dies with the listener
		go func() { _ = http.Serve(ln, PprofMux()) }()
	}
	return s, nil
}

// PprofMux builds a dedicated mux carrying only the net/http/pprof
// handlers. The profiling surface is deliberately never registered on
// http.DefaultServeMux (the old blank-import approach did, which meant
// any other handler in the process serving the default mux exposed
// pprof too); with an explicit mux, -pprof and the stream telemetry
// listener are isolated in both directions.
func PprofMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Context returns ctx with the session's tracer and registry attached
// (identity when the session is inert).
func (s *Session) Context(ctx context.Context) context.Context {
	if s == nil {
		return ctx
	}
	return WithTracer(WithMetrics(ctx, s.Metrics), s.Tracer)
}

// Close flushes and closes the trace file, writes the metrics
// snapshot, prints the progress summary, and stops the pprof server.
// Idempotent; safe on an inert session.
func (s *Session) Close() error {
	if s == nil || s.closed {
		return nil
	}
	s.closed = true
	var first error
	if s.traceBuf != nil {
		if err := s.traceBuf.Flush(); err != nil && first == nil {
			first = fmt.Errorf("obs: flushing trace: %w", err)
		}
		if err := s.traceFile.Close(); err != nil && first == nil {
			first = fmt.Errorf("obs: closing trace: %w", err)
		}
	}
	if s.metrics != "" && s.Metrics != nil {
		f, err := os.Create(s.metrics)
		if err != nil {
			if first == nil {
				first = fmt.Errorf("obs: creating metrics file: %w", err)
			}
		} else {
			if err := s.Metrics.Snapshot().WriteJSON(f); err != nil && first == nil {
				first = fmt.Errorf("obs: writing metrics: %w", err)
			}
			if err := f.Close(); err != nil && first == nil {
				first = fmt.Errorf("obs: closing metrics: %w", err)
			}
		}
	}
	if s.progress != nil {
		s.progress.Summary()
	}
	if s.pprofLn != nil {
		_ = s.pprofLn.Close()
	}
	return first
}

// stageDurations feeds every finished span into a per-stage duration
// histogram, so -metrics carries the time breakdown even without
// -trace. Stages are a label on one family (stage.duration_seconds)
// rather than a name suffix, so the Prometheus exposition groups them.
type stageDurations struct{ reg *Registry }

func (s stageDurations) SpanStart(d *SpanData) {}

func (s stageDurations) SpanEnd(d *SpanData) {
	s.reg.Histogram(LabeledName("stage.duration_seconds", "stage", d.Name)).ObserveDuration(d.End.Sub(d.Start))
}
