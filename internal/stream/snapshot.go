package stream

import (
	"fmt"
	"io"
	"time"

	"fullweb/internal/lrd"
	"fullweb/internal/report"
)

// ArrivalEstimate is the streaming LRD state of one arrival process at
// snapshot time.
type ArrivalEstimate struct {
	// OK reports whether enough aggregation levels have filled for a
	// variance-time regression; the other fields are meaningful only
	// when set.
	OK bool `json:"ok"`
	// H is the streaming aggregated-variance Hurst estimate; R2 its
	// regression fit.
	H  float64 `json:"h"`
	R2 float64 `json:"r2"`
	// Levels is the number of dyadic levels contributing.
	Levels int `json:"levels"`
	// Seconds is the number of complete one-second bins folded in.
	Seconds int64 `json:"seconds"`
}

// CharSnapshot is the online summary of one intra-session
// characteristic over the sessions finalized so far.
type CharSnapshot struct {
	Name string `json:"name"`
	// N is the number of finalized sessions observed.
	N int64 `json:"n"`
	// Welford moments and extremes.
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"std_dev"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	// Quantile-sketch estimates.
	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`
	// Hill tail state: HillOK reports the estimator ran (enough positive
	// observations); Stable mirrors the batch read-off ("NS" otherwise);
	// Alpha is the tail index over the stable window; Sample and Seen
	// are the reservoir size and the positive observations fed.
	HillOK     bool    `json:"hill_ok"`
	HillStable bool    `json:"hill_stable"`
	HillAlpha  float64 `json:"hill_alpha"`
	HillSample int     `json:"hill_sample"`
	HillSeen   int64   `json:"hill_seen"`
}

// Snapshot is one deterministic report of the engine state: everything
// is derived from the records before the snapshot's trace-time
// boundary, never from the wall clock, so the same input produces
// byte-identical snapshots run to run.
type Snapshot struct {
	// At is the trace-time boundary (for periodic snapshots) or the last
	// record's timestamp (final).
	At time.Time `json:"at"`
	// Final marks the end-of-stream snapshot, which includes the flushed
	// still-open sessions.
	Final bool `json:"final"`
	// Totals over the stream so far. Span serializes in nanoseconds
	// (Go's time.Duration encoding).
	Records     int64         `json:"records"`
	ParseErrors int64         `json:"parse_errors"`
	Bytes       int64         `json:"bytes"`
	Span        time.Duration `json:"span_ns"`
	// Session accounting: Closed counts finalized sessions (on the final
	// snapshot this equals the batch sessionizer's count exactly),
	// Active the still-open ones, Opened their sum.
	SessionsClosed int64 `json:"sessions_closed"`
	SessionsActive int64 `json:"sessions_active"`
	SessionsOpened int64 `json:"sessions_opened"`
	// Ingest is the input-health accounting at this boundary,
	// including the DegradedInput verdict when the stream breached its
	// error budget.
	Ingest IngestStats `json:"ingest"`
	// Arrival-process LRD state, from the engine's estimators (fed in
	// input order).
	RequestArrivals ArrivalEstimate `json:"request_arrivals"`
	SessionArrivals ArrivalEstimate `json:"session_arrivals"`
	// Chars holds the per-characteristic summaries in the fixed
	// Characteristics() order (a slice, not a map, so rendering never
	// depends on map iteration order).
	Chars []CharSnapshot `json:"chars"`
}

// fillArrival reads one streaming LRD estimator into snapshot form.
func fillArrival(dst *ArrivalEstimate, est *lrd.OnlineAggVar) {
	dst.Seconds = est.N()
	dst.Levels = est.Levels()
	e, err := est.Estimate()
	if err != nil {
		return
	}
	dst.OK = true
	dst.H = e.H
	dst.R2 = e.R2
}

// snapshot reads one characteristic's estimators into snapshot
// form.
func (c *charState) snapshot() CharSnapshot {
	qs := c.quant.Quantiles(0.50, 0.90, 0.99)
	cs := CharSnapshot{
		Name:       c.name,
		N:          c.moments.N(),
		Mean:       c.moments.Mean(),
		StdDev:     c.moments.StdDev(),
		Min:        c.moments.Min(),
		Max:        c.moments.Max(),
		P50:        qs[0],
		P90:        qs[1],
		P99:        qs[2],
		HillSample: c.hill.SampleLen(),
		HillSeen:   c.hill.Seen(),
	}
	if est, err := c.hill.Estimate(); err == nil {
		cs.HillOK = true
		cs.HillStable = est.Stable
		cs.HillAlpha = est.Alpha
	}
	return cs
}

// snapshot assembles the current engine state.
func (e *Engine) snapshot(at time.Time, final bool) *Snapshot {
	s := &Snapshot{
		At:             at,
		Final:          final,
		Records:        e.records,
		ParseErrors:    e.ingest.Rejected,
		Bytes:          e.bytes,
		Span:           at.Sub(e.firstTime),
		SessionsClosed: e.closed,
		SessionsActive: int64(e.streamer.ActiveSessions()),
		SessionsOpened: e.streamer.OpenedTotal(),
		// Detached: the image must not share the sample/reason slices
		// with the engine's still-appending live stats.
		Ingest: e.ingest.detached(),
		Chars:  make([]CharSnapshot, 0, len(e.chars)),
	}
	s.Ingest.Evaluate(e.cfg.Mode, e.cfg.Budget, e.records)
	fillArrival(&s.RequestArrivals, e.reqArr.est)
	fillArrival(&s.SessionArrivals, e.sessArr.est)
	for _, c := range e.chars {
		s.Chars = append(s.Chars, c.snapshot())
	}
	return s
}

// Render writes the snapshot as the fullweb stream report block. The
// totals line of the final snapshot uses the exact format of fullweb
// analyze's header, so the two front ends can be diffed directly. All
// times are rendered in UTC; nothing here reads a clock.
func (s *Snapshot) Render(w io.Writer) error {
	label := "snapshot"
	if s.Final {
		label = "final"
	}
	if _, err := fmt.Fprintf(w, "-- %s @ %s --\n", label, s.At.UTC().Format(time.RFC3339)); err != nil {
		return err
	}
	fmt.Fprintf(w, "  requests=%s sessions=%s bytes=%s span=%v\n",
		report.Count(s.Records), report.Count(s.SessionsClosed+s.SessionsActive),
		report.Count(s.Bytes), s.Span)
	fmt.Fprintf(w, "  sessions: closed=%s active=%s opened=%s  parse errors=%s\n",
		report.Count(s.SessionsClosed), report.Count(s.SessionsActive),
		report.Count(s.SessionsOpened), report.Count(s.ParseErrors))
	st := s.Ingest
	health := "ok"
	if st.Degraded {
		health = "DEGRADED"
	}
	trunc := ""
	if st.Truncated {
		trunc = " truncated"
	}
	fmt.Fprintf(w, "  input: %s rejected=%s (malformed=%s oversized=%s) clamped=%s%s\n",
		health, report.Count(st.Rejected), report.Count(st.Malformed),
		report.Count(st.Oversized), report.Count(st.Clamped), trunc)
	for _, reason := range st.Reasons {
		fmt.Fprintf(w, "  input: budget breach: %s\n", reason)
	}
	for _, sample := range st.Samples {
		fmt.Fprintf(w, "  reject sample: %s\n", sample)
	}
	renderArrival := func(name string, a ArrivalEstimate) {
		if a.OK {
			fmt.Fprintf(w, "  %s arrivals: H=%s (R^2 %s, %d levels, %s s)\n",
				name, report.F(a.H), report.F2(a.R2), a.Levels, report.Count(a.Seconds))
		} else {
			fmt.Fprintf(w, "  %s arrivals: H=- (warming up: %d levels, %s s)\n",
				name, a.Levels, report.Count(a.Seconds))
		}
	}
	renderArrival("request", s.RequestArrivals)
	renderArrival("session", s.SessionArrivals)
	if len(s.Chars) > 0 && s.Chars[0].N > 0 {
		tb := report.NewTable("characteristic", "n", "mean", "sd", "p50", "p90", "p99", "alpha_Hill", "sample")
		for _, c := range s.Chars {
			tb.AddRow(c.Name, report.Count(c.N), report.F2(c.Mean), report.F2(c.StdDev),
				report.F2(c.P50), report.F2(c.P90), report.F2(c.P99),
				hillCell(c), report.Count(int64(c.HillSample)))
		}
		if _, err := io.WriteString(w, tb.String()); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// hillCell mirrors the batch CLI's Hill annotations: a value when the
// plot stabilized, "NS" when it did not, "-" when the estimator could
// not run yet.
func hillCell(c CharSnapshot) string {
	switch {
	case !c.HillOK:
		return "-"
	case !c.HillStable:
		return "NS"
	default:
		return report.F2(c.HillAlpha)
	}
}
