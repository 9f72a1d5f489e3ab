package stream

import (
	"fmt"
	"io"
	"time"

	"fullweb/internal/heavytail"
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
	// Mergeable quantile-sketch estimates.
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
// byte-identical snapshots run to run. A sharded engine's snapshot is
// the deterministic merge of its shard states and renders identically
// at any shard count wherever the merges are exact (DESIGN.md §12).
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
	// Arrival-process LRD state, from the engine's global estimators
	// (fed in input order at dispatch, so independent of the shard
	// partition).
	RequestArrivals ArrivalEstimate `json:"request_arrivals"`
	SessionArrivals ArrivalEstimate `json:"session_arrivals"`
	// Chars holds the per-characteristic summaries in the fixed
	// Characteristics() order (a slice, not a map, so rendering never
	// depends on map iteration order).
	Chars []CharSnapshot `json:"chars"`
}

// mergeSeedStride offsets the sub-seed of snapshot-time reservoir
// merges away from every per-shard observation seed, so a merged draw
// never replays a shard's own sampling stream.
const mergeSeedStride = 32452843 // the 2e6-th prime

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

// charSnapshotFrom reads one characteristic's (possibly merged)
// estimators into snapshot form.
func charSnapshotFrom(name string, m Welford, q *QuantileSketch, hill *heavytail.OnlineHill) CharSnapshot {
	qs := q.Quantiles(0.50, 0.90, 0.99)
	cs := CharSnapshot{
		Name:       name,
		N:          m.N(),
		Mean:       m.Mean(),
		StdDev:     m.StdDev(),
		Min:        m.Min(),
		Max:        m.Max(),
		P50:        qs[0],
		P90:        qs[1],
		P99:        qs[2],
		HillSample: hill.SampleLen(),
		HillSeen:   hill.Seen(),
	}
	if est, err := hill.Estimate(); err == nil {
		cs.HillOK = true
		cs.HillStable = est.Stable
		cs.HillAlpha = est.Alpha
	}
	return cs
}

// mergedChars assembles the per-characteristic summaries across shards.
// A single-shard engine reads its estimators directly (no copies, no
// merge cost — the historical fast path, bit-identical to the unsharded
// engine). A sharded engine folds the shard sketches in ascending shard
// order: Welford moments and quantile sketches merge pairwise, Hill
// reservoirs through MergeOnlineHills under a derived merge seed. The
// merged sketches are snapshot-transient — checkpoints always carry the
// per-shard states.
func (e *Engine) mergedChars() ([]CharSnapshot, error) {
	out := make([]CharSnapshot, 0, len(e.shards[0].chars))
	if len(e.shards) == 1 {
		for _, c := range e.shards[0].chars {
			out = append(out, charSnapshotFrom(c.name, c.moments, c.quant, c.hill))
		}
		return out, nil
	}
	for i, c0 := range e.shards[0].chars {
		var moments Welford
		quant, err := NewQuantileSketch(c0.quant.Cap())
		if err != nil {
			return nil, err
		}
		hills := make([]*heavytail.OnlineHill, 0, len(e.shards))
		for _, sh := range e.shards {
			c := sh.chars[i]
			moments.Merge(c.moments)
			if err := quant.Merge(c.quant); err != nil {
				return nil, err
			}
			hills = append(hills, c.hill)
		}
		mergeSeed := e.cfg.Seed + mergeSeedStride + int64(i)*charSeedStride
		hill, err := heavytail.MergeOnlineHills(mergeSeed, hills...)
		if err != nil {
			return nil, err
		}
		out = append(out, charSnapshotFrom(c0.name, moments, quant, hill))
	}
	return out, nil
}

// snapshot assembles the current engine state, merging shard states
// deterministically (ascending shard order).
func (e *Engine) snapshot(at time.Time, final bool) (*Snapshot, error) {
	s := &Snapshot{
		At:             at,
		Final:          final,
		Records:        e.records,
		ParseErrors:    e.ingest.Rejected,
		Bytes:          e.bytes,
		Span:           at.Sub(e.firstTime),
		SessionsClosed: e.closedSessions(),
		SessionsActive: int64(e.activeSessions()),
		SessionsOpened: e.openedSessions(),
		// Detached: the image must not share the sample/reason slices
		// with the engine's still-appending live stats.
		Ingest: e.ingest.detached(),
	}
	s.Ingest.Evaluate(e.cfg.Mode, e.cfg.Budget, e.records)
	fillArrival(&s.RequestArrivals, e.reqArr.est)
	fillArrival(&s.SessionArrivals, e.sessArr.est)
	chars, err := e.mergedChars()
	if err != nil {
		return nil, err
	}
	s.Chars = chars
	return s, nil
}

// ShardInfo is one shard's view in a ShardDetail report.
type ShardInfo struct {
	Records int64
	Bytes   int64
	Closed  int64
	Active  int
	Opened  int64
	// Per-shard arrival-process estimates — each shard's own slice of
	// the traffic, the "per-server" view.
	RequestArrivals ArrivalEstimate
	SessionArrivals ArrivalEstimate
}

// ShardDetail is the optional per-shard breakdown of a sharded run:
// each partition's totals and arrival estimates, plus the pooled
// (merged) per-shard LRD estimators. The pooled estimate aggregates the
// block-mean populations of the per-shard series — the per-partition
// view that Rolls et al. observed can carry weaker LRD than the summed
// series — and is deliberately distinct from the snapshot's global
// estimate, which always comes from the unsplit input-order stream.
type ShardDetail struct {
	Shards         []ShardInfo
	PooledRequests ArrivalEstimate
	PooledSessions ArrivalEstimate
}

// ShardDetail reports the per-shard breakdown. The per-shard estimators
// are deep-copied before pooling, so calling this never perturbs the
// engine state.
func (e *Engine) ShardDetail() (*ShardDetail, error) {
	d := &ShardDetail{}
	pooledReq, pooledSess, err := e.pooledPair()
	if err != nil {
		return nil, err
	}
	fillArrival(&d.PooledRequests, pooledReq)
	fillArrival(&d.PooledSessions, pooledSess)
	for _, sh := range e.shards {
		info := ShardInfo{
			Records: sh.records,
			Bytes:   sh.bytes,
			Closed:  sh.closed,
			Active:  sh.streamer.ActiveSessions(),
			Opened:  sh.streamer.OpenedTotal(),
		}
		reqEst, sessEst := sh.reqArr.est, sh.sessArr.est
		if len(e.shards) == 1 {
			// An unsharded engine does not duplicate the global arrival
			// trackers into its single shard; the global pair is that
			// shard's per-partition view.
			reqEst, sessEst = e.reqArr.est, e.sessArr.est
		}
		fillArrival(&info.RequestArrivals, reqEst)
		fillArrival(&info.SessionArrivals, sessEst)
		d.Shards = append(d.Shards, info)
	}
	return d, nil
}

// pooledPair merges deep copies of the per-shard arrival estimators in
// ascending shard order.
func (e *Engine) pooledPair() (req, sess *lrd.OnlineAggVar, err error) {
	copyOf := func(est *lrd.OnlineAggVar) (*lrd.OnlineAggVar, error) {
		return lrd.RestoreOnlineAggVar(est.State())
	}
	if len(e.shards) == 1 {
		if req, err = copyOf(e.reqArr.est); err != nil {
			return nil, nil, err
		}
		if sess, err = copyOf(e.sessArr.est); err != nil {
			return nil, nil, err
		}
		return req, sess, nil
	}
	if req, err = copyOf(e.shards[0].reqArr.est); err != nil {
		return nil, nil, err
	}
	if sess, err = copyOf(e.shards[0].sessArr.est); err != nil {
		return nil, nil, err
	}
	for _, sh := range e.shards[1:] {
		if err = req.Merge(sh.reqArr.est); err != nil {
			return nil, nil, err
		}
		if err = sess.Merge(sh.sessArr.est); err != nil {
			return nil, nil, err
		}
	}
	return req, sess, nil
}

// RenderShardDetail writes the per-shard breakdown. It is never part of
// Snapshot.Render — the snapshot report stays byte-identical at every
// shard count; this block is opt-in (fullweb stream -shard-detail).
func (d *ShardDetail) RenderShardDetail(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "-- shards (%d) --\n", len(d.Shards)); err != nil {
		return err
	}
	tb := report.NewTable("shard", "records", "bytes", "closed", "active", "opened", "H_req", "H_sess")
	hcell := func(a ArrivalEstimate) string {
		if !a.OK {
			return "-"
		}
		return report.F(a.H)
	}
	for i, sh := range d.Shards {
		tb.AddRow(fmt.Sprintf("%d", i), report.Count(sh.Records), report.Count(sh.Bytes),
			report.Count(sh.Closed), report.Count(int64(sh.Active)), report.Count(sh.Opened),
			hcell(sh.RequestArrivals), hcell(sh.SessionArrivals))
	}
	if _, err := io.WriteString(w, tb.String()); err != nil {
		return err
	}
	renderPooled := func(name string, a ArrivalEstimate) {
		if a.OK {
			fmt.Fprintf(w, "  pooled %s arrivals (per-shard): H=%s (R^2 %s, %d levels, %s s)\n",
				name, report.F(a.H), report.F2(a.R2), a.Levels, report.Count(a.Seconds))
		} else {
			fmt.Fprintf(w, "  pooled %s arrivals (per-shard): H=- (warming up: %d levels, %s s)\n",
				name, a.Levels, report.Count(a.Seconds))
		}
	}
	renderPooled("request", d.PooledRequests)
	renderPooled("session", d.PooledSessions)
	_, err := fmt.Fprintln(w)
	return err
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
