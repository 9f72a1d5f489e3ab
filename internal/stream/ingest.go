package stream

import (
	"fmt"
	"strings"
)

// Mode selects how the engine treats rejected input (malformed lines,
// oversized fields) and non-monotonic timestamps. The zero value is
// ModeBudgeted, which with a zero Budget behaves like the historical
// engine: count everything, reject nothing fatally.
type Mode int

const (
	// ModeBudgeted counts and quarantines rejects, clamps backwards
	// timestamps, and keeps going; when a Budget threshold is breached
	// the snapshots (and the analyze header) carry a DegradedInput
	// verdict so downstream LRD/Poisson/heavy-tail readings are
	// explicitly flagged. A mid-stream read failure (truncated gzip
	// rotation) ends the input early with the same verdict instead of
	// aborting.
	ModeBudgeted Mode = iota
	// ModeStrict fails fast: the first rejected line, backwards
	// timestamp or read fault aborts the run with a positioned error.
	ModeStrict
	// ModeLenient counts rejects and clamps but never degrades the
	// verdict — the historical silent-tolerance behavior, made visible.
	ModeLenient
)

// ParseMode maps the CLI spelling to a Mode.
func ParseMode(s string) (Mode, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "budgeted":
		return ModeBudgeted, nil
	case "strict":
		return ModeStrict, nil
	case "lenient":
		return ModeLenient, nil
	default:
		return 0, fmt.Errorf("%w: mode %q (want strict, budgeted or lenient)", ErrBadConfig, s)
	}
}

// String returns the CLI spelling.
func (m Mode) String() string {
	switch m {
	case ModeStrict:
		return "strict"
	case ModeLenient:
		return "lenient"
	default:
		return "budgeted"
	}
}

// Budget bounds how much input degradation ModeBudgeted tolerates
// before snapshots carry the DegradedInput verdict. Zero fields are
// unlimited; the zero value never degrades.
type Budget struct {
	// MaxRejects is the absolute cap on rejected lines (malformed +
	// oversized).
	MaxRejects int64
	// MaxRejectRate caps rejected lines as a fraction of parse
	// attempts — records plus rejects — in (0, 1]. The denominator is
	// record-granular (not raw lines), so the verdict at a snapshot
	// boundary is independent of chunk geometry.
	MaxRejectRate float64
	// MaxClamped is the absolute cap on non-monotonic timestamps
	// clamped forward to the stream clock.
	MaxClamped int64
}

// validate rejects nonsensical budgets at engine construction.
func (b Budget) validate() error {
	if b.MaxRejects < 0 || b.MaxClamped < 0 {
		return fmt.Errorf("%w: negative budget %+v", ErrBadConfig, b)
	}
	if b.MaxRejectRate < 0 || b.MaxRejectRate > 1 {
		return fmt.Errorf("%w: reject rate %v outside [0, 1]", ErrBadConfig, b.MaxRejectRate)
	}
	return nil
}

// ingestSampleN bounds how many reject samples a snapshot carries.
const ingestSampleN = 5

// IngestStats is the input-health accounting carried by every
// snapshot: what arrived, what was rejected and why, and whether the
// degradation breached budget. All fields are pure functions of the
// input stream, so they obey the same determinism contract as the
// analyses.
type IngestStats struct {
	// Rejected = Malformed + Oversized lines (each also quarantined
	// when a quarantine sink is configured).
	Rejected  int64 `json:"rejected"`
	Malformed int64 `json:"malformed"`
	Oversized int64 `json:"oversized"`
	// Clamped counts records whose timestamps ran backwards and were
	// pulled forward to the stream clock.
	Clamped int64 `json:"clamped"`
	// Truncated is set when a mid-stream read failure ended the input
	// early under ModeBudgeted.
	Truncated bool `json:"truncated"`
	// Samples holds the first few reject positions ("line N: cause"),
	// capped at ingestSampleN.
	Samples []string `json:"samples,omitempty"`
	// Degraded is the DegradedInput verdict; Reasons lists which
	// budget dimensions breached, in a fixed order.
	Degraded bool     `json:"degraded"`
	Reasons  []string `json:"reasons,omitempty"`
}

// detached returns a copy sharing no storage with the receiver: the
// Samples and Reasons backing arrays are duplicated, so a snapshot or
// checkpoint image embedding the copy cannot be corrupted by the
// engine appending to its live stats afterwards (the aliasing class
// mergealias checks for).
func (st IngestStats) detached() IngestStats {
	var d IngestStats
	st.detachInto(&d)
	return d
}

// detachInto is detached into dst, reusing the capacity of dst's
// Samples and Reasons.
func (st *IngestStats) detachInto(dst *IngestStats) {
	samples, reasons := dst.Samples[:0], dst.Reasons[:0]
	*dst = *st
	dst.Samples = append(samples, st.Samples...)
	dst.Reasons = append(reasons, st.Reasons...)
}

// Evaluate recomputes the DegradedInput verdict from the counters,
// the budget and the record count (the reject-rate denominator is
// records + rejects). Counters only grow and the rate's numerator
// grows with its denominator's reject part, so breaches are evaluated
// at every snapshot; the stored Reasons always describe the snapshot
// they accompany.
func (st *IngestStats) Evaluate(mode Mode, b Budget, records int64) {
	st.Degraded = false
	st.Reasons = nil
	if mode == ModeLenient {
		return
	}
	add := func(reason string) {
		st.Degraded = true
		st.Reasons = append(st.Reasons, reason)
	}
	if b.MaxRejects > 0 && st.Rejected > b.MaxRejects {
		add(fmt.Sprintf("rejects %d > budget %d", st.Rejected, b.MaxRejects))
	}
	if attempts := records + st.Rejected; b.MaxRejectRate > 0 && attempts > 0 {
		rate := float64(st.Rejected) / float64(attempts)
		if rate > b.MaxRejectRate {
			add(fmt.Sprintf("reject rate %.4f > budget %.4f", rate, b.MaxRejectRate))
		}
	}
	if b.MaxClamped > 0 && st.Clamped > b.MaxClamped {
		add(fmt.Sprintf("clamped timestamps %d > budget %d", st.Clamped, b.MaxClamped))
	}
	if st.Truncated {
		add("input truncated by read failure")
	}
}
