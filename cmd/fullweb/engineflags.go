package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
	"fullweb/internal/session"
	"fullweb/internal/stream"
	"fullweb/internal/telemetry"
	"fullweb/internal/weblog"
)

// engineFlags are the stream-engine options `fullweb stream` and
// `fullweb serve` share. Both commands register, validate and assemble
// them here, so the two cannot drift apart in a name, a default or a
// check; what differs between them (inputs, listeners, how -resume
// recovers) stays in the command.
type engineFlags struct {
	cmd string // command name, prefixed to errors and naming the report's tool

	threshold      time.Duration
	snapshotEvery  time.Duration
	workers        int
	reservoir      int
	quantileCap    int
	seed           int64
	chunkLines     int
	chunkWindow    int
	mode           string
	quarantinePath string
	checkpointPath string
	resume         bool
	maxRejects     int64
	maxRejectRate  float64
	maxClamped     int64
	maxFieldBytes  int
	faultSpec      string

	ingestMode stream.Mode     // parsed -mode, set by validate
	faults     *faultpoint.Set // armed fault sites, nil when none
}

// bindEngineFlags registers the shared engine flags on fs. resumeUsage
// and faultSites are the two help texts whose meaning differs by
// command: what -resume recovers from and which fault sites it arms.
func bindEngineFlags(fs *flag.FlagSet, cmd, resumeUsage, faultSites string) *engineFlags {
	e := &engineFlags{cmd: cmd}
	fs.DurationVar(&e.threshold, "threshold", session.DefaultThreshold, "session inactivity threshold")
	fs.DurationVar(&e.snapshotEvery, "snapshot", 6*time.Hour, "trace-time between snapshots (0 = final only)")
	fs.IntVar(&e.workers, "parallel", 0, "parse worker pool size (0 = all CPUs, 1 = sequential); snapshots are identical at any setting")
	fs.IntVar(&e.reservoir, "reservoir", 8192, "per-characteristic Hill reservoir capacity")
	fs.IntVar(&e.quantileCap, "quantile-cap", stream.DefaultQuantileCap, "per-characteristic quantile sketch capacity (even, >= 16)")
	fs.Int64Var(&e.seed, "seed", 1, "reservoir sampling seed")
	fs.IntVar(&e.chunkLines, "chunk-lines", 0, "lines per parse chunk (0 = default)")
	fs.IntVar(&e.chunkWindow, "chunk-window", 0, "chunks in flight between scan and fold (0 = default); times -chunk-lines, bounds the lines held at any -parallel")
	fs.StringVar(&e.mode, "mode", "budgeted", "ingestion mode: budgeted (count, quarantine, degrade), strict (fail on first reject) or lenient (count only)")
	fs.StringVar(&e.quarantinePath, "quarantine", "", "append rejected raw lines to this file (budgeted/lenient modes)")
	fs.StringVar(&e.checkpointPath, "checkpoint", "", "write a resumable engine checkpoint here at every snapshot boundary")
	fs.BoolVar(&e.resume, "resume", false, resumeUsage)
	fs.Int64Var(&e.maxRejects, "max-rejects", 0, "budgeted mode: degrade after this many rejected lines (0 = no absolute cap)")
	fs.Float64Var(&e.maxRejectRate, "max-reject-rate", 0, "budgeted mode: degrade when rejects/parse-attempts exceeds this rate (0 = no rate cap)")
	fs.Int64Var(&e.maxClamped, "max-clamped", 0, "budgeted mode: degrade after this many clamped non-monotonic timestamps (0 = no cap)")
	fs.IntVar(&e.maxFieldBytes, "max-field-bytes", 0, "reject records whose host or path exceeds this many bytes (0 = no limit)")
	fs.StringVar(&e.faultSpec, "faults", "", "deterministic fault-injection spec, e.g. '"+faultSites+"' (default $FULLWEB_FAULTS)")
	return e
}

// validate checks the parsed engine flags and parses -mode. Negative
// chunk geometry and field caps are rejected here rather than left to
// weblog.ChunkConfig, which would quietly read them as "default" or
// "no limit".
func (e *engineFlags) validate() error {
	for _, f := range []struct {
		name string
		v    int
	}{{"parallel", e.workers}, {"chunk-lines", e.chunkLines}, {"chunk-window", e.chunkWindow}, {"max-field-bytes", e.maxFieldBytes}} {
		if f.v < 0 {
			return fmt.Errorf("%s: -%s must be >= 0, got %d", e.cmd, f.name, f.v)
		}
	}
	mode, err := stream.ParseMode(e.mode)
	if err != nil {
		return fmt.Errorf("%s: %w", e.cmd, err)
	}
	e.ingestMode = mode
	return checkBudgetMode(e.cmd, mode, e.budget())
}

// budget is the error budget the -max-* flags set.
func (e *engineFlags) budget() stream.Budget {
	return stream.Budget{MaxRejects: e.maxRejects, MaxRejectRate: e.maxRejectRate, MaxClamped: e.maxClamped}
}

// checkBudgetMode rejects an error budget under a mode that never
// spends one: strict fails on the first reject and lenient only
// counts, so a -max-rejects, -max-reject-rate or -max-clamped there
// would be silently ignored.
func checkBudgetMode(cmd string, mode stream.Mode, b stream.Budget) error {
	if mode == stream.ModeBudgeted {
		return nil
	}
	for _, f := range []struct {
		name string
		set  bool
	}{{"max-rejects", b.MaxRejects != 0}, {"max-reject-rate", b.MaxRejectRate != 0}, {"max-clamped", b.MaxClamped != 0}} {
		if f.set {
			return fmt.Errorf("%s: -%s applies only to -mode budgeted, got -mode %s", cmd, f.name, mode)
		}
	}
	return nil
}

// armFaults parses the fault spec (-faults, else $FULLWEB_FAULTS) and
// arms it on ctx. The spec is deterministic, so a faulted run is
// reproducible bit for bit from the command line alone.
func (e *engineFlags) armFaults(ctx context.Context) (context.Context, error) {
	spec := e.faultSpec
	if spec == "" {
		spec = os.Getenv("FULLWEB_FAULTS")
	}
	if spec == "" {
		return ctx, nil
	}
	faults, err := faultpoint.Parse(spec)
	if err != nil {
		return ctx, fmt.Errorf("%s: %w", e.cmd, err)
	}
	e.faults = faults
	return faultpoint.With(ctx, faults), nil
}

// engineConfig assembles the engine config and opens the quarantine
// sink. On resume the sink is truncated to the offset the checkpoint
// recorded, discarding lines quarantined after the last durable state,
// then reopened for append — so the resumed run's quarantine is
// byte-identical to an uninterrupted one. The returned file is nil
// without -quarantine; otherwise the caller closes it.
func (e *engineFlags) engineConfig(cp *stream.Checkpoint, metrics *obs.Registry) (stream.Config, *os.File, error) {
	cfg := stream.DefaultConfig()
	cfg.Threshold = e.threshold
	cfg.SnapshotEvery = e.snapshotEvery
	cfg.Workers = e.workers
	cfg.ReservoirCap = e.reservoir
	cfg.QuantileCap = e.quantileCap
	cfg.Seed = e.seed
	cfg.Chunk = weblog.ChunkConfig{Lines: e.chunkLines, Window: e.chunkWindow, MaxFieldBytes: e.maxFieldBytes}
	cfg.Mode = e.ingestMode
	cfg.Budget = e.budget()
	cfg.CheckpointPath = e.checkpointPath
	cfg.Metrics = metrics
	if e.quarantinePath == "" {
		return cfg, nil, nil
	}
	var offset int64
	if cp != nil {
		offset = cp.QuarantineOffset()
	}
	qf, err := openQuarantine(e.quarantinePath, offset)
	if err != nil {
		return cfg, nil, fmt.Errorf("%s: %w", e.cmd, err)
	}
	cfg.Quarantine = qf
	return cfg, qf, nil
}

// writeHeader prints the run's header line, the resume note when
// resuming from cp, and the blank line before the first snapshot.
func (e *engineFlags) writeHeader(out io.Writer, verb string, inputs []string, cp *stream.Checkpoint) {
	fmt.Fprintf(out, "%s %s (threshold %v, %s, %s mode)\n",
		verb, strings.Join(inputs, ", "), e.threshold, snapshotLabel(e.snapshotEvery), e.ingestMode)
	if cp != nil {
		fmt.Fprintf(out, "resumed from %s (skipping %d already-processed lines)\n", e.checkpointPath, cp.SkipLines())
	}
	fmt.Fprintln(out)
}

// writeFaultSummary prints each armed fault site's hit and fire
// counts. It runs even when the run died on an injected fault — that
// is exactly when the drill operator needs it.
func (e *engineFlags) writeFaultSummary(out io.Writer) {
	for _, st := range e.faults.Stats() {
		fmt.Fprintf(out, "fault site %s: hits=%d fires=%d\n", st.Site, st.Hits, st.Fires)
	}
}

// runReport assembles the end-of-run JSON report from the final
// snapshot; each command adds what only it knows.
func (e *engineFlags) runReport(inputs []string, cfg stream.Config, final *stream.Snapshot, metrics *obs.Registry) *telemetry.RunReport {
	totals, chars, verdict := telemetry.StreamReportParts(final)
	return &telemetry.RunReport{
		Tool:            e.cmd,
		Inputs:          inputs,
		Config:          cfg.Fingerprint(),
		Totals:          totals,
		Ingest:          final.Ingest,
		Verdict:         verdict,
		Characteristics: chars,
		Faults:          e.faults.Stats(),
		Obs:             metrics.Snapshot(),
	}
}

// openQuarantine prepares the quarantine file: fresh runs truncate,
// resumed runs cut back to the checkpointed offset and append.
func openQuarantine(path string, offset int64) (*os.File, error) {
	if offset > 0 {
		if err := os.Truncate(path, offset); err != nil {
			return nil, fmt.Errorf("truncating quarantine to checkpoint offset: %w", err)
		}
		return os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	}
	return os.Create(path)
}

// snapshotLabel renders the snapshot cadence, naming the disabled case.
func snapshotLabel(d time.Duration) string {
	if d <= 0 {
		return "snapshots: final only"
	}
	return fmt.Sprintf("snapshot every %v", d)
}
