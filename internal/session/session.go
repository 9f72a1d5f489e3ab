// Package session implements the paper's session model: a session is a
// sequence of requests from the same IP address with inter-request gaps
// of at most a threshold (30 minutes in the paper) — only a gap strictly
// exceeding the threshold starts a new session, so a gap of exactly the
// threshold stays in-session. The package provides the sessionizer and
// the inter-session (arrival process) and intra-session (length, request
// count, bytes) characteristics of Section 5.
package session

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/weblog"
)

// DefaultThreshold is the paper's inactivity threshold delimiting
// sessions.
const DefaultThreshold = 30 * time.Minute

var (
	// ErrNoRecords is returned when sessionizing an empty log.
	ErrNoRecords = errors.New("session: no records")
	// ErrBadThreshold is returned for a non-positive threshold.
	ErrBadThreshold = errors.New("session: non-positive threshold")
)

// Session is one user visit reconstructed from the log.
type Session struct {
	// Host is the client IP (or sanitized identifier) the session belongs
	// to.
	Host string
	// Start and End are the timestamps of the first and last request.
	Start, End time.Time
	// Requests is the number of requests in the session (session length
	// in number of requests, Table 3).
	Requests int
	// Bytes is the total number of bytes transferred, completed and
	// partial transfers alike (Table 4).
	Bytes int64
	// Errors is the number of 4xx/5xx responses within the session.
	Errors int
}

// Duration returns the session length in time (Table 2): the span from
// first to last request. Single-request sessions have zero duration.
func (s Session) Duration() time.Duration { return s.End.Sub(s.Start) }

// Sessionize groups records into sessions per host with the given
// inactivity threshold: a request more than threshold after the previous
// request from the same host starts a new session. The returned sessions
// are sorted by start time, ties broken by host — a total order, so the
// output is identical run to run even though the hosts are bucketed in a
// map (downstream floating-point accumulations are order-sensitive, and
// tied start times are common at the log format's one-second
// granularity). The input is not modified.
func Sessionize(records []weblog.Record, threshold time.Duration) ([]Session, error) {
	return SessionizeCtx(context.Background(), records, threshold)
}

// SessionizeCtx is Sessionize under a context carrying observability
// state: it wraps the grouping in a session.sessionize span and feeds
// the session.sessions_built counter. The reconstruction itself is
// identical to Sessionize — instrumentation never changes what is
// computed.
func SessionizeCtx(ctx context.Context, records []weblog.Record, threshold time.Duration) ([]Session, error) {
	_, sp := obs.StartSpan(ctx, "session.sessionize")
	defer sp.End()
	sessions, err := sessionize(records, threshold)
	sp.SetInt("records", int64(len(records)))
	sp.SetInt("sessions", int64(len(sessions)))
	obs.MetricsFrom(ctx).Counter("session.sessions_built").Add(int64(len(sessions)))
	return sessions, err
}

func sessionize(records []weblog.Record, threshold time.Duration) ([]Session, error) {
	if len(records) == 0 {
		return nil, ErrNoRecords
	}
	if threshold <= 0 {
		return nil, fmt.Errorf("%w: %v", ErrBadThreshold, threshold)
	}
	// Group record indices per host, preserving order, then sort each
	// host's records by time.
	byHost := make(map[string][]weblog.Record)
	for _, r := range records {
		byHost[r.Host] = append(byHost[r.Host], r)
	}
	var sessions []Session
	for _, recs := range byHost {
		sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time.Before(recs[j].Time) })
		cur := open(&recs[0])
		for i := 1; i < len(recs); i++ {
			r := &recs[i]
			if r.Time.Sub(cur.End) > threshold {
				sessions = append(sessions, cur)
				cur = open(r)
				continue
			}
			cur.absorb(r)
		}
		sessions = append(sessions, cur)
	}
	sortSessions(sessions)
	return sessions, nil
}

// open starts a session at a record — the single definition of "what a
// new session looks like", shared by the batch sessionizer and the
// incremental Streamer so the two can never drift field by field.
func open(r *weblog.Record) Session {
	s := Session{Host: r.Host, Start: r.Time, End: r.Time}
	s.absorb(r)
	return s
}

// absorb folds one record into an open session: the shared accumulation
// step of the batch and streaming sessionizers.
func (s *Session) absorb(r *weblog.Record) {
	s.End = r.Time
	s.Requests++
	s.Bytes += r.Bytes
	if r.IsError() {
		s.Errors++
	}
}

// sortSessions puts sessions into the canonical (start time, host) order
// shared by every sessionizer variant. Two sessions of the same host
// never share a start time, so the order is total and deterministic.
func sortSessions(sessions []Session) {
	sort.Slice(sessions, func(i, j int) bool {
		if !sessions[i].Start.Equal(sessions[j].Start) {
			return sessions[i].Start.Before(sessions[j].Start)
		}
		return sessions[i].Host < sessions[j].Host
	})
}

// StartSeconds returns each session's start timestamp as Unix seconds,
// sorted — the event input of the session-level Poisson battery
// (Section 5.1.2).
func StartSeconds(sessions []Session) []int64 {
	out := make([]int64, len(sessions))
	for i, s := range sessions {
		out[i] = s.Start.Unix()
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// InitiatedPerSecond returns the sessions-initiated-per-second counting
// series (Section 5.1.1), spanning from the first session start to the
// last, inclusive.
func InitiatedPerSecond(sessions []Session) ([]float64, error) {
	if len(sessions) == 0 {
		return nil, ErrNoRecords
	}
	secs := StartSeconds(sessions)
	start := secs[0]
	n := int(secs[len(secs)-1]-start) + 1
	counts := make([]float64, n)
	for _, s := range secs {
		counts[s-start]++
	}
	return counts, nil
}

// Durations returns each session's length in seconds. Zero-duration
// (single-request) sessions are included; heavy-tail analyses that need
// positive data should filter with PositiveOnly.
func Durations(sessions []Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = s.Duration().Seconds()
	}
	return out
}

// RequestCounts returns each session's length in number of requests.
func RequestCounts(sessions []Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.Requests)
	}
	return out
}

// ByteCounts returns each session's total bytes transferred.
func ByteCounts(sessions []Session) []float64 {
	out := make([]float64, len(sessions))
	for i, s := range sessions {
		out[i] = float64(s.Bytes)
	}
	return out
}

// PositiveOnly returns the strictly positive entries of x — the subset on
// which LLCD and Hill analyses are defined.
func PositiveOnly(x []float64) []float64 {
	out := make([]float64, 0, len(x))
	for _, v := range x {
		if v > 0 {
			out = append(out, v)
		}
	}
	return out
}
