package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"syscall"

	"fullweb/internal/obs"
	"fullweb/internal/serve"
	"fullweb/internal/stream"
)

// cmdServe is the live intake server: CLF lines arrive from declared
// sources over HTTP (POST /ingest) and optionally raw TCP, flow
// through the hardened ingestion path into the stream engine, and the
// what-if layer answers capacity queries online (GET /whatif) from the
// engine's published arrival series.
//
//	fullweb serve -source s1 -source s2 -listen 127.0.0.1:8080
//	curl --data-binary @s1.log 'http://127.0.0.1:8080/ingest?source=s1&complete=1'
//
// Source order is the determinism contract (DESIGN.md §15): the same
// lines over N sources in any delivery interleaving produce the same
// final snapshot as `fullweb stream` over the sources concatenated in
// declared order. SIGTERM/SIGINT begin a graceful drain: listeners
// close, buffered input folds, the final snapshot prints. The process
// exits only on that signal: once every source completes it prints the
// final snapshot and keeps answering queries until signalled.
func cmdServe(args []string, out io.Writer) (err error) {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	var sources []string
	fs.Func("source", "declare an intake source ID; repeat the flag in fold order (required)", func(v string) error {
		if v == "" {
			return fmt.Errorf("empty -source value")
		}
		sources = append(sources, v)
		return nil
	})
	listen := fs.String("listen", "", "HTTP address for intake and telemetry (/ingest, /whatif, /metrics, /snapshot, /healthz, /readyz); ':0' picks a free port (required)")
	listenAddrFile := fs.String("listen-addr-file", "", "write the HTTP listener's bound address to this file (useful with -listen :0)")
	intakeTCP := fs.String("intake-tcp", "", "also accept raw line intake on this TCP address (protocol: 'fullweb-intake <source>\\n' then raw CLF lines; close = complete)")
	intakeTCPAddrFile := fs.String("intake-tcp-addr-file", "", "write the TCP intake listener's bound address to this file")
	bufferBytes := fs.Int64("buffer-bytes", serve.DefaultBufferBytes, "per-source intake buffer cap in bytes; a full buffer returns 429 on HTTP and blocks on TCP")
	whatifWindow := fs.Int("whatif-window", stream.DefaultArrivalWindow, "trailing arrival-series window in trace seconds for /whatif")
	ef := bindEngineFlags(fs, "serve",
		"resume from the -checkpoint file and/or replay the -wal journal instead of starting fresh",
		"serve.read=hit:3")
	walDir := fs.String("wal", "", "durable intake journal directory: every delivery is journaled (sha256-framed segments) before acknowledgment; with -resume the journal replays on restart")
	walSegmentBytes := fs.Int64("wal-segment-bytes", serve.DefaultWALSegmentBytes, "rotate a source's journal segment past this many bytes")
	walSyncBytes := fs.Int64("wal-sync-bytes", serve.DefaultWALSyncBytes, "background-fsync a source's journal after this many unsynced bytes, bounding what a power loss can take (0 = OS writeback only: process crashes still lose nothing, forced writeback stays off the intake path)")
	walDiskBudget := fs.Int64("wal-disk-budget", 0, "cap the journal's on-disk footprint; appends past it shed intake with 503 (0 = unbounded)")
	walCheckpointBytes := fs.Int64("wal-checkpoint-bytes", serve.DefaultWALCheckpointBytes, "request an engine checkpoint whenever this many journaled bytes are not yet covered by one (requires -checkpoint)")
	reportPath := fs.String("report", "", "write the end-of-run JSON run report (including the what-if capacity sweep) to this file")
	var obsCfg obs.CLIConfig
	obsCfg.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if len(sources) == 0 {
		return fmt.Errorf("serve: at least one -source is required")
	}
	if *listen == "" {
		return fmt.Errorf("serve: -listen is required")
	}
	if err := ef.validate(); err != nil {
		return err
	}
	if *whatifWindow < 1 {
		return fmt.Errorf("serve: -whatif-window must be >= 1, got %d", *whatifWindow)
	}
	if ef.resume && ef.checkpointPath == "" && *walDir == "" {
		return fmt.Errorf("serve: -resume requires -checkpoint or -wal")
	}
	if *intakeTCPAddrFile != "" && *intakeTCP == "" {
		return fmt.Errorf("serve: -intake-tcp-addr-file requires -intake-tcp")
	}
	// Serve always runs its telemetry surface, so the registry is
	// always wanted.
	obsCfg.WantRegistry = true
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
	if ef.resume && ef.checkpointPath != "" {
		cp, err = stream.LoadCheckpoint(ef.checkpointPath)
		switch {
		case err == nil:
		case errors.Is(err, os.ErrNotExist) && *walDir != "":
			// The crash may predate the first checkpoint; the journal
			// alone still replays everything from byte 0.
			fmt.Fprintf(os.Stderr, "serve: no checkpoint at %s; recovering from the journal alone\n", ef.checkpointPath)
		default:
			return fmt.Errorf("serve: %w", err)
		}
	}

	cfg, qf, err := ef.engineConfig(cp, osess.Metrics)
	if err != nil {
		return err
	}
	if qf != nil {
		defer func() {
			if cerr := qf.Close(); cerr != nil && err == nil {
				err = cerr
			}
		}()
	}
	cfg.ArrivalWindow = *whatifWindow

	var walCfg *serve.WALConfig
	if *walDir != "" {
		walCfg = &serve.WALConfig{
			Dir:             *walDir,
			SegmentBytes:    *walSegmentBytes,
			SyncBytes:       *walSyncBytes,
			DiskBudgetBytes: *walDiskBudget,
			CheckpointBytes: *walCheckpointBytes,
			Resume:          ef.resume,
		}
	}

	srv, err := serve.New(serve.Config{
		Sources:     sources,
		BufferBytes: *bufferBytes,
		WantTCP:     *intakeTCP != "",
		Engine:      cfg,
		Checkpoint:  cp,
		WAL:         walCfg,
		Clock:       obs.SystemClock(),
		Log:         os.Stderr,
	})
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}

	ln, lerr := net.Listen("tcp", *listen)
	if lerr != nil {
		return fmt.Errorf("serve: HTTP listener: %w", lerr)
	}
	srv.StartHTTP(ln)
	defer srv.Close()
	fmt.Fprintf(os.Stderr, "serve: intake http://%s/ingest?source=<id>  whatif http://%s/whatif\n", ln.Addr(), ln.Addr())
	if *listenAddrFile != "" {
		if werr := os.WriteFile(*listenAddrFile, []byte(ln.Addr().String()+"\n"), 0o644); werr != nil {
			return fmt.Errorf("serve: writing -listen-addr-file: %w", werr)
		}
	}
	if *intakeTCP != "" {
		tln, terr := net.Listen("tcp", *intakeTCP)
		if terr != nil {
			return fmt.Errorf("serve: TCP intake listener: %w", terr)
		}
		srv.StartTCP(tln)
		fmt.Fprintf(os.Stderr, "serve: raw TCP intake on %s\n", tln.Addr())
		if *intakeTCPAddrFile != "" {
			if werr := os.WriteFile(*intakeTCPAddrFile, []byte(tln.Addr().String()+"\n"), 0o644); werr != nil {
				return fmt.Errorf("serve: writing -intake-tcp-addr-file: %w", werr)
			}
		}
	}

	// Graceful drain on SIGTERM/SIGINT: listeners close, whatever
	// arrived folds in source order, the final snapshot prints, the
	// process exits 0. signalled closes once the signal has arrived.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, syscall.SIGTERM, syscall.SIGINT)
	defer signal.Stop(sigCh)
	signalled := make(chan struct{})
	//lint:allow rawgo signal-to-drain relay, one goroutine for the process lifetime
	go func() {
		if _, ok := <-sigCh; ok {
			fmt.Fprintln(os.Stderr, "serve: draining (listeners closed, folding buffered input)")
			srv.Drain()
			close(signalled)
		}
	}()

	ef.writeHeader(out, "serving", sources, cp)

	final, perr := srv.Run(ctx, func(s *stream.Snapshot) error {
		return s.Render(out)
	})
	if perr == nil {
		perr = final.Render(out)
	}
	ef.writeFaultSummary(out)
	if perr == nil && *reportPath != "" {
		rep := ef.runReport(sources, cfg, final, osess.Metrics)
		if sweep := serve.WhatIfSweep(srv.Holder()); len(sweep) > 0 {
			rep.WhatIf = sweep
		}
		if pub, ok := srv.Holder().LatestWAL(); ok {
			rep.WAL = pub.Stats
		}
		if werr := rep.WriteFile(*reportPath); werr != nil {
			return fmt.Errorf("serve: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "run report written to %s\n", *reportPath)
	}
	if perr != nil {
		return perr
	}
	// Every source completed (or the drain ran): the listeners stay up,
	// answering the read-only endpoints with the final state and /ingest
	// with 409, until the signal. A client polling /readyz for the final
	// count after its completion POST must not race the process exit.
	select {
	case <-signalled:
	default:
		fmt.Fprintln(os.Stderr, "serve: every source complete; serving the final state until SIGTERM/SIGINT")
		<-signalled
	}
	return nil
}
