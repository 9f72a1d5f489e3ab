package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
)

// cmdStream is the bounded-memory online pipeline: it tails one or more
// CLF logs (plain or gzip-rotated segments, or stdin) through
// internal/stream and prints periodic trace-time snapshots plus a final
// one whose totals match `fullweb analyze` on the same input exactly.
//
//	fullweb stream -log access.log
//	fullweb stream -log access.log.1.gz -log access.log.0.gz -log access.log
//	tail -F access.log | fullweb stream -log - -snapshot 1h
//
// Robustness controls (DESIGN.md §11): -mode picks the ingestion
// policy (budgeted, strict, lenient), -quarantine captures rejected
// raw lines, -checkpoint persists engine state at each snapshot and
// -resume restarts from it, and -faults (or FULLWEB_FAULTS) arms
// deterministic fault injection for drills.
func cmdStream(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("stream", flag.ContinueOnError)
	var logs []string
	fs.Func("log", "CLF log file, .gz accepted, or '-' for stdin; repeat the flag for rotated segments in oldest-first order (required)", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty -log value")
		}
		logs = append(logs, v)
		return nil
	})
	ef := bindEngineFlags(fs, "stream",
		"resume from the -checkpoint file instead of starting fresh",
		"stream.fold=hit:3;weblog.read=rate:0.01,seed:7")
	listen := fs.String("listen", "", "serve read-only live telemetry (/metrics, /snapshot, /healthz, /readyz) on this address for the run's lifetime (e.g. 127.0.0.1:9090; ':0' picks a free port)")
	listenAddrFile := fs.String("listen-addr-file", "", "write the telemetry listener's bound address to this file (useful with -listen :0)")
	reportPath := fs.String("report", "", "write the end-of-run JSON run report to this file")
	linger := fs.Duration("linger", 0, "keep the process (and its -listen telemetry) alive this long after a successful run")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(logs) == 0 {
		return fmt.Errorf("stream: at least one -log is required")
	}
	if err := ef.validate(); err != nil {
		return err
	}
	if ef.resume && ef.checkpointPath == "" {
		return fmt.Errorf("stream: -resume requires -checkpoint")
	}
	if *listenAddrFile != "" && *listen == "" {
		return fmt.Errorf("stream: -listen-addr-file requires -listen")
	}
	// The telemetry service and the run report both read live
	// instruments, so they force a registry even without -metrics.
	obsCfg.WantRegistry = *listen != "" || *reportPath != ""
	osess, err := obsCfg.Start(obs.SystemClock(), os.Stderr)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := osess.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	ctx := osess.Context(context.Background())

	if ctx, err = ef.armFaults(ctx); err != nil {
		return err
	}

	// Load the checkpoint before touching any output state: a corrupt
	// or mismatched checkpoint must abort with everything untouched.
	var cp *stream.Checkpoint
	if ef.resume {
		if cp, err = stream.LoadCheckpoint(ef.checkpointPath); err != nil {
			return fmt.Errorf("stream: %w", err)
		}
	}

	// Each segment is sniffed for gzip individually, so rotated inputs
	// may freely mix compressed and plain segments. Opens go through
	// the bounded retry policy: a transiently missing rotated segment
	// (mid-rotation rename) gets three attempts before the run fails.
	readers := make([]io.Reader, 0, len(logs))
	var files []*os.File
	var closers []io.Closer
	defer func() {
		for _, c := range closers {
			if cerr := c.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}
	}()
	for _, path := range logs {
		var raw *os.File
		if path == "-" {
			var c io.Closer
			if raw, c = pollableStdin(); c != nil {
				closers = append(closers, c)
			}
		} else {
			f, ferr := weblog.OpenRetry(ctx, path, weblog.DefaultRetryPolicy(time.Sleep))
			if ferr != nil {
				return fmt.Errorf("stream: opening log: %w", ferr)
			}
			closers = append(closers, f)
			raw = f
		}
		files = append(files, raw)
		dr, derr := weblog.MaybeDecompress(raw)
		if derr != nil {
			return fmt.Errorf("stream: %s: %w", path, derr)
		}
		readers = append(readers, dr)
	}

	cfg, qf, err := ef.engineConfig(cp, osess.Metrics)
	if err != nil {
		return err
	}
	if qf != nil {
		closers = append(closers, qf)
	}

	// The live telemetry service: the engine publishes copy-on-publish
	// views into the holder; the HTTP mux reads only published values
	// and the (atomic) registry instruments, so scraping cannot perturb
	// the run — output stays byte-identical with -listen on or off.
	if *listen != "" {
		holder := telemetry.NewHolder(obs.SystemClock())
		health := telemetry.NewHealth(telemetry.HealthConfig{Engine: cfg}, holder, osess.Metrics, obs.SystemClock())
		ln, lerr := net.Listen("tcp", *listen)
		if lerr != nil {
			return fmt.Errorf("stream: telemetry listener: %w", lerr)
		}
		srv := telemetry.NewServer(osess.Metrics, holder, health)
		srv.Serve(ln)
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "telemetry: http://%s/ (/metrics /snapshot /healthz /readyz)\n", ln.Addr())
		if *listenAddrFile != "" {
			if werr := os.WriteFile(*listenAddrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
				return fmt.Errorf("stream: writing -listen-addr-file: %w", werr)
			}
		}
		cfg.Telemetry = holder
	}

	var engine *stream.Engine
	if cp != nil {
		engine, err = stream.ResumeEngine(cfg, cp)
	} else {
		engine, err = stream.NewEngine(cfg)
	}
	if err != nil {
		return err
	}
	ef.writeHeader(out, "streaming", logs, cp)
	in := &logInput{Reader: io.MultiReader(readers...), files: files}
	final, perr := engine.ProcessCtx(ctx, in, func(s *stream.Snapshot) error {
		return s.Render(out)
	})
	if perr == nil {
		perr = final.Render(out)
	}
	ef.writeFaultSummary(out)
	if perr == nil && *reportPath != "" {
		rep := ef.runReport(logs, cfg, final, osess.Metrics)
		rep.Snapshots = engine.Snapshots()
		if werr := rep.WriteFile(*reportPath); werr != nil {
			return fmt.Errorf("stream: %w", werr)
		}
	}
	// Lingering keeps the telemetry endpoints (and the run report on
	// disk) available after a successful run — how the CI smoke job
	// scrapes final state before killing the process.
	if perr == nil && *linger > 0 {
		fmt.Fprintf(os.Stderr, "lingering %v before exit (telemetry stays up)\n", *linger)
		time.Sleep(*linger)
	}
	return perr
}
