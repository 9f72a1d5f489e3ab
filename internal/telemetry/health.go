package telemetry

import (
	"fmt"
	"strings"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/stream"
	"fullweb/internal/weblog"
)

// Health-rule bounds. Warn thresholds deliberately trip before fail
// thresholds so a scraper sees the burn coming.
const (
	// maxCheckpointAge fails /healthz when a checkpointing run has not
	// persisted a checkpoint for this long.
	maxCheckpointAge = 10 * time.Minute
	// maxQuarantineRate bounds quarantine growth in bytes/second when
	// the engine has a quarantine sink: a sustained megabyte per second
	// of rejected lines means the input is mostly garbage.
	maxQuarantineRate = 1 << 20
	// budgetWarnFraction warns when any error-budget dimension has
	// burned this fraction of its allowance.
	budgetWarnFraction = 0.8
	// SourceStaleAfter is the intake source-staleness bound: an
	// incomplete source silent longer than this draws a warning.
	SourceStaleAfter = 2 * time.Minute
	// intakeBufferWarnFraction warns when any source's intake buffer
	// occupancy reaches this fraction of the per-source cap; a
	// completely full buffer fails.
	intakeBufferWarnFraction = 0.8
	// maxWALLagBytes bounds journaled-but-unfolded intake: a crash now
	// replays this much, so growth past it means the engine is not
	// keeping up with acknowledged deliveries.
	maxWALLagBytes int64 = 256 << 20
	// walDiskWarnFraction warns when the journal's on-disk footprint
	// reaches this fraction of its budget; exhaustion (shedding) fails.
	walDiskWarnFraction = 0.8
)

// RuleResult is one health rule's verdict: status "ok", "warn" or
// "fail" plus a human-readable detail line.
type RuleResult struct {
	Rule   string `json:"rule"`
	Status string `json:"status"`
	Detail string `json:"detail"`
}

// HealthReport is the /healthz body: the overall verdict plus every
// rule's result in a fixed order.
type HealthReport struct {
	// Healthy is false when any rule failed (the /healthz 503 signal);
	// warnings do not unhealth the process.
	Healthy bool `json:"healthy"`
	// Ready reports whether the engine has published at least one
	// runtime view (the /readyz signal).
	Ready bool         `json:"ready"`
	Rules []RuleResult `json:"rules"`
}

// HealthConfig is what the health rules watch: the engine's config
// and which serve-mode rules apply.
type HealthConfig struct {
	// Engine is the watched engine's config. The error-budget rule
	// re-evaluates its Mode and Budget against the live counters; the
	// backpressure and fold-lag rules bound at its parse window
	// (Chunk.Window, 0 meaning weblog.DefaultChunkWindow); the
	// checkpoint rule runs when CheckpointPath is set and the
	// quarantine rule when Quarantine is.
	Engine stream.Config
	// Intake enables the serve-mode intake rules (source staleness,
	// buffer occupancy), appended after the five stream rules in the
	// fixed order. Off for `fullweb stream`, which has no intake.
	Intake bool
	// WAL enables the journal rules (wal-lag, wal-disk), appended after
	// the intake rules. Off unless serve runs with a journal.
	WAL bool
}

// Health evaluates the live health rules against the holder's latest
// publications and the metrics registry. Evaluation is read-only and
// safe to run concurrently with publication.
type Health struct {
	cfg    HealthConfig
	window int64 // the parse window: backpressure and fold-lag bound
	holder *Holder
	reg    *obs.Registry
	clock  obs.Clock
}

// NewHealth builds a health evaluator. reg may be nil (the
// parser-side rules then read zero counters).
func NewHealth(cfg HealthConfig, holder *Holder, reg *obs.Registry, clock obs.Clock) *Health {
	window := cfg.Engine.Chunk.Window
	if window <= 0 {
		window = weblog.DefaultChunkWindow
	}
	return &Health{cfg: cfg, window: int64(window), holder: holder, reg: reg, clock: clock}
}

// Evaluate runs every rule, in the fixed order of the DESIGN.md §14
// table: ingest-budget, backpressure, fold-lag, checkpoint,
// quarantine — then, in serve mode (cfg.Intake), source-staleness and
// intake-buffer (DESIGN.md §15), and with a journal (cfg.WAL), wal-lag
// and wal-disk (DESIGN.md §16).
func (h *Health) Evaluate() HealthReport {
	cur, prev, ready := h.holder.LatestRuntime()
	rep := HealthReport{Healthy: true, Ready: ready}
	rep.Rules = []RuleResult{
		h.ruleIngestBudget(cur, ready),
		h.ruleBackpressure(),
		h.ruleFoldLag(),
		h.ruleCheckpoint(ready),
		h.ruleQuarantine(cur, prev, ready),
	}
	if h.cfg.Intake {
		rep.Rules = append(rep.Rules,
			h.ruleSourceStaleness(),
			h.ruleIntakeBuffer(),
		)
	}
	if h.cfg.WAL {
		rep.Rules = append(rep.Rules,
			h.ruleWALLag(),
			h.ruleWALDisk(),
		)
	}
	for _, r := range rep.Rules {
		if r.Status == "fail" {
			rep.Healthy = false
		}
	}
	return rep
}

// ruleIngestBudget re-evaluates the engine's degradation verdict from
// the live counters and reports the budget burn fraction. A budget
// exactly exhausted is warn, not fail — the engine's own breach
// comparisons are strictly greater-than, so "at the limit" is still
// within budget.
func (h *Health) ruleIngestBudget(cur PublishedRuntime, ready bool) RuleResult {
	r := RuleResult{Rule: "ingest-budget", Status: "ok"}
	if !ready {
		r.Detail = "no runtime published yet"
		return r
	}
	mode, budget := h.cfg.Engine.Mode, h.cfg.Engine.Budget
	st := cur.Stats.Ingest
	st.Evaluate(mode, budget, cur.Stats.Records)
	if st.Degraded {
		r.Status = "fail"
		r.Detail = "error budget breached: " + strings.Join(st.Reasons, "; ")
		return r
	}
	burn, dims := st.BudgetBurn(mode, budget, cur.Stats.Records)
	if dims == 0 {
		r.Detail = "no error budget configured"
		return r
	}
	switch {
	case burn >= 1:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("error budget exactly exhausted (burn %.0f%%)", burn*100)
	case burn >= budgetWarnFraction:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("error budget burn %.0f%%", burn*100)
	default:
		r.Detail = fmt.Sprintf("error budget burn %.0f%%", burn*100)
	}
	return r
}

// ruleBackpressure reports the parser's in-flight chunk depth against
// its window. Saturation is the design operating point under load, so
// this rule warns and never fails.
func (h *Health) ruleBackpressure() RuleResult {
	r := RuleResult{Rule: "backpressure", Status: "ok"}
	depth := h.reg.Gauge("weblog.chunks_in_flight").Value()
	r.Detail = fmt.Sprintf("parse queue depth %d of window %d", depth, h.window)
	if depth >= h.window {
		r.Status = "warn"
		r.Detail = fmt.Sprintf("parse window saturated (depth %d of %d)", depth, h.window)
	}
	return r
}

// ruleFoldLag compares chunks parsed against chunks folded. The fold
// drains the parse window in order and the parser cannot run further
// ahead than it, so the window is the bound: lag beyond it means the
// fold stalled (or accounting broke). Warn past the bound, fail past
// twice the bound.
func (h *Health) ruleFoldLag() RuleResult {
	r := RuleResult{Rule: "fold-lag", Status: "ok"}
	parsed := h.reg.Counter("weblog.chunks_parsed").Value()
	folded := h.reg.Counter("stream.chunks_folded").Value()
	lag := parsed - folded
	r.Detail = fmt.Sprintf("%d chunks parsed, %d folded (lag %d)", parsed, folded, lag)
	switch {
	case lag > 2*h.window:
		r.Status = "fail"
		r.Detail = fmt.Sprintf("fold stalled: lag %d exceeds twice the bound %d", lag, h.window)
	case lag > h.window:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("fold lagging: %d chunks behind (bound %d)", lag, h.window)
	}
	return r
}

// ruleCheckpoint fails a checkpointing run whose last persisted
// checkpoint is older than maxCheckpointAge — the signal that a
// crash now would replay an unbounded amount of input. Warns at half
// the age. Runs without checkpointing always pass.
func (h *Health) ruleCheckpoint(ready bool) RuleResult {
	r := RuleResult{Rule: "checkpoint", Status: "ok"}
	if h.cfg.Engine.CheckpointPath == "" {
		r.Detail = "checkpointing disabled"
		return r
	}
	if !ready {
		r.Detail = "no runtime published yet"
		return r
	}
	age := h.clock.Now().Sub(h.holder.LastCheckpointAt())
	r.Detail = fmt.Sprintf("last checkpoint %s ago (max %s)", age.Round(time.Second), maxCheckpointAge)
	switch {
	case age > maxCheckpointAge:
		r.Status = "fail"
		r.Detail = fmt.Sprintf("checkpoint stale: %s since last persist (max %s)", age.Round(time.Second), maxCheckpointAge)
	case age > maxCheckpointAge/2:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("checkpoint aging: %s since last persist (max %s)", age.Round(time.Second), maxCheckpointAge)
	}
	return r
}

// ruleQuarantine bounds quarantine growth between the last two runtime
// publications: warn past maxQuarantineRate, fail past twice it.
// Disabled (always ok) when the engine has no quarantine sink.
func (h *Health) ruleQuarantine(cur PublishedRuntime, prev *PublishedRuntime, ready bool) RuleResult {
	r := RuleResult{Rule: "quarantine", Status: "ok"}
	if h.cfg.Engine.Quarantine == nil {
		r.Detail = "no quarantine growth bound configured"
		return r
	}
	if !ready || prev == nil {
		r.Detail = "warming up (fewer than two publications)"
		return r
	}
	dt := cur.At.Sub(prev.At).Seconds()
	if dt <= 0 {
		r.Detail = "warming up (publications not yet time-separated)"
		return r
	}
	rate := float64(cur.Stats.QuarantineBytes-prev.Stats.QuarantineBytes) / dt
	r.Detail = fmt.Sprintf("quarantine growing at %.0f B/s (max %.0f)", rate, float64(maxQuarantineRate))
	switch {
	case rate > 2*float64(maxQuarantineRate):
		r.Status = "fail"
		r.Detail = fmt.Sprintf("quarantine flooding: %.0f B/s exceeds twice the bound %.0f B/s", rate, float64(maxQuarantineRate))
	case rate > float64(maxQuarantineRate):
		r.Status = "warn"
	}
	return r
}

// ruleSourceStaleness warns when any registered incomplete source has
// delivered nothing for strictly longer than the staleness bound —
// exactly at the bound is still fresh. Completed sources never age,
// and a draining intake is force-completing everything, so neither
// draws a warning. Staleness never fails: a silent source may simply
// be done without having said so.
func (h *Health) ruleSourceStaleness() RuleResult {
	r := RuleResult{Rule: "source-staleness", Status: "ok"}
	pub, ok := h.holder.LatestIntake()
	if !ok {
		r.Detail = "no intake published yet"
		return r
	}
	if pub.Stats.Draining {
		r.Detail = "draining"
		return r
	}
	now := h.clock.Now()
	var stale []string
	total := 0
	for _, src := range pub.Stats.Sources {
		if src.Complete {
			continue
		}
		total++
		if now.Sub(src.LastAt) > SourceStaleAfter {
			stale = append(stale, src.Name)
		}
	}
	r.Detail = fmt.Sprintf("%d incomplete sources, none stale (bound %s)", total, SourceStaleAfter)
	if len(stale) > 0 {
		r.Status = "warn"
		r.Detail = fmt.Sprintf("stale sources (silent > %s): %s", SourceStaleAfter, strings.Join(stale, ", "))
	}
	return r
}

// ruleIntakeBuffer reports the worst per-source intake buffer
// occupancy against the per-source cap: warn at or above the warn
// fraction, fail when any source's buffer is completely full —
// senders are being refused and the engine is not draining it.
func (h *Health) ruleIntakeBuffer() RuleResult {
	r := RuleResult{Rule: "intake-buffer", Status: "ok"}
	pub, ok := h.holder.LatestIntake()
	if !ok {
		r.Detail = "no intake published yet"
		return r
	}
	capB := pub.Stats.BufferCap
	if capB <= 0 {
		r.Detail = "no intake buffer bound configured"
		return r
	}
	var worst int64
	worstName := ""
	for _, src := range pub.Stats.Sources {
		if src.Buffered > worst {
			worst = src.Buffered
			worstName = src.Name
		}
	}
	frac := float64(worst) / float64(capB)
	r.Detail = fmt.Sprintf("worst source buffer %.0f%% of %d bytes", frac*100, capB)
	switch {
	case worst >= capB:
		r.Status = "fail"
		r.Detail = fmt.Sprintf("intake buffer full: source %s at %d of %d bytes", worstName, worst, capB)
	case frac >= intakeBufferWarnFraction:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("intake buffer filling: source %s at %.0f%% of %d bytes", worstName, frac*100, capB)
	}
	return r
}

// ruleWALLag bounds journaled-but-unfolded intake bytes: warn past
// half the bound, fail past the bound — acknowledged durability is
// outrunning the fold, so a crash now replays that much journal.
func (h *Health) ruleWALLag() RuleResult {
	r := RuleResult{Rule: "wal-lag", Status: "ok"}
	pub, ok := h.holder.LatestWAL()
	if !ok {
		r.Detail = "no journal published yet"
		return r
	}
	lag, bound := pub.Stats.LagBytes, maxWALLagBytes
	r.Detail = fmt.Sprintf("%d journaled bytes not yet folded (bound %d)", lag, bound)
	switch {
	case lag > bound:
		r.Status = "fail"
		r.Detail = fmt.Sprintf("journal lag %d bytes exceeds the bound %d: fold is not keeping up with acknowledged intake", lag, bound)
	case lag > bound/2:
		r.Status = "warn"
		r.Detail = fmt.Sprintf("journal lag %d bytes past half the bound %d", lag, bound)
	}
	return r
}

// ruleWALDisk reports the journal's on-disk footprint against its
// budget: warn at the warn fraction, fail once the journal sheds
// intake (budget exhausted or disk fault) — deliveries are being
// refused with 503 while the engine folds what it has.
func (h *Health) ruleWALDisk() RuleResult {
	r := RuleResult{Rule: "wal-disk", Status: "ok"}
	pub, ok := h.holder.LatestWAL()
	if !ok {
		r.Detail = "no journal published yet"
		return r
	}
	st := pub.Stats
	if st.Shedding {
		r.Status = "fail"
		r.Detail = "journal shedding intake: " + st.ShedReason
		return r
	}
	if st.DiskBudgetBytes <= 0 {
		r.Detail = fmt.Sprintf("journal at %d bytes on disk, no budget configured", st.DiskBytes)
		return r
	}
	frac := float64(st.DiskBytes) / float64(st.DiskBudgetBytes)
	r.Detail = fmt.Sprintf("journal at %.0f%% of %d-byte disk budget", frac*100, st.DiskBudgetBytes)
	if frac >= walDiskWarnFraction {
		r.Status = "warn"
		r.Detail = fmt.Sprintf("journal disk budget burning: %d of %d bytes (%.0f%%)", st.DiskBytes, st.DiskBudgetBytes, frac*100)
	}
	return r
}
