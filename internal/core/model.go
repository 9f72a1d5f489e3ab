package core

import (
	"context"
	"fmt"
	"time"

	"fullweb/internal/obs"
	"fullweb/internal/session"
	"fullweb/internal/weblog"
)

// Characteristic names the three intra-session characteristics of
// Section 5.2.
const (
	CharSessionLength      = "session-length-seconds"
	CharRequestsPerSession = "requests-per-session"
	CharBytesPerSession    = "bytes-per-session"
)

// AllCharacteristics lists the three intra-session characteristics in
// the paper's table order — the shared iteration order of the batch
// tail tables and the streaming engine's snapshots.
func AllCharacteristics() []string {
	return []string{CharSessionLength, CharRequestsPerSession, CharBytesPerSession}
}

// CharacteristicValue extracts one characteristic from one finalized
// session: the single definition both the batch tail tables and the
// streaming engine feed their estimators from, so the two pipelines
// cannot drift. Unknown names panic — the name set is a closed enum.
func CharacteristicValue(char string, s *session.Session) float64 {
	switch char {
	case CharSessionLength:
		return s.Duration().Seconds()
	case CharRequestsPerSession:
		return float64(s.Requests)
	case CharBytesPerSession:
		return float64(s.Bytes)
	}
	panic(fmt.Sprintf("core: unknown characteristic %q", char))
}

// CharacteristicValues extracts one characteristic from every session.
func CharacteristicValues(char string, sessions []session.Session) []float64 {
	out := make([]float64, len(sessions))
	for i := range sessions {
		out[i] = CharacteristicValue(char, &sessions[i])
	}
	return out
}

// IntervalName labels the rows of Tables 2-4.
const (
	IntervalWeek = "Week"
)

// TailTable groups the tail analyses of one characteristic across the
// Low, Med, High and Week intervals — one of Tables 2, 3 or 4.
type TailTable struct {
	Characteristic string
	// Rows is keyed by interval name ("Low", "Med", "High", "Week").
	Rows map[string]TailAnalysis
}

// FullWebModel is the complete characterization of one server's log —
// the paper's FULL-Web model.
type FullWebModel struct {
	// Server is a label for the analyzed log.
	Server string
	// Table1 summary.
	Requests         int
	Sessions         int
	BytesTransferred int64
	Span             time.Duration
	// RequestArrivals is the Section 4 analysis; SessionArrivals the
	// Section 5.1.1 analysis.
	RequestArrivals *ArrivalAnalysis
	SessionArrivals *ArrivalAnalysis
	// TypicalWindows are the Low/Med/High four-hour intervals.
	TypicalWindows map[weblog.WorkloadLevel]weblog.Window
	// RequestPoisson and SessionPoisson are the Section 4.2 and 5.1.2
	// batteries per typical window.
	RequestPoisson map[weblog.WorkloadLevel]*PoissonAnalysis
	SessionPoisson map[weblog.WorkloadLevel]*PoissonAnalysis
	// Tails holds Tables 2-4, keyed by characteristic name.
	Tails map[string]*TailTable
}

// AnalyzeCtx runs the full FULL-Web pipeline on a log store:
// request-level arrival analysis, sessionization, session-level arrival
// analysis, Poisson batteries on the typical windows at both levels, and
// the heavy-tail tables for the three intra-session characteristics.
// It asks a fresh Analysis for every part at once, fanned out on the
// analyzer's worker pool; each part waits only for the parts it reads
// (the sessions, the typical windows) and lands in its own field, so
// the model is identical at any pool size. A failing part cancels its
// unstarted siblings through ctx.
func (a *Analyzer) AnalyzeCtx(ctx context.Context, server string, store *weblog.Store) (*FullWebModel, error) {
	ctx, sp := obs.StartSpan(ctx, "core.analyze")
	sp.SetAttr("server", server)
	defer sp.End()
	if store == nil || store.Len() == 0 {
		return nil, ErrNoData
	}
	sp.SetInt("records", int64(store.Len()))
	first, last, err := store.Span()
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	model := &FullWebModel{
		Server:           server,
		Requests:         store.Len(),
		BytesTransferred: store.TotalBytes(),
		Span:             last.Sub(first),
	}
	x := a.NewAnalysis(store)
	chars := AllCharacteristics()
	tails := make([]*TailTable, len(chars))
	err = a.pool.ForEach(ctx, 4+len(chars), func(ctx context.Context, i int) error {
		var err error
		switch i {
		case 0:
			model.RequestArrivals, err = x.RequestArrivals(ctx)
		case 1:
			model.SessionArrivals, err = x.SessionArrivals(ctx)
		case 2:
			model.RequestPoisson, err = x.RequestPoisson(ctx)
		case 3:
			model.SessionPoisson, err = x.SessionPoisson(ctx)
		default:
			tails[i-4], err = x.Tails(ctx, chars[i-4])
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	// Every part has run, so these return the cached values.
	sessions, _ := x.Sessions(ctx)
	model.Sessions = len(sessions)
	model.TypicalWindows, _ = x.TypicalWindows(ctx)
	model.Tails = make(map[string]*TailTable, len(chars))
	for i, char := range chars {
		model.Tails[char] = tails[i]
	}
	return model, nil
}

// orderedLevels returns the window map's keys in ascending workload
// order — the fixed fan-out order behind deterministic scheduling.
func orderedLevels(windows map[weblog.WorkloadLevel]weblog.Window) []weblog.WorkloadLevel {
	var out []weblog.WorkloadLevel
	for _, level := range []weblog.WorkloadLevel{weblog.Low, weblog.Med, weblog.High} {
		if _, ok := windows[level]; ok {
			out = append(out, level)
		}
	}
	return out
}

// recordSeconds returns the Unix-second timestamps of the records inside
// a window.
func recordSeconds(store *weblog.Store, w weblog.Window) []int64 {
	recs := store.Range(w.Start, w.Start.Add(w.Duration))
	out := make([]int64, len(recs))
	for i, r := range recs {
		out[i] = r.Time.Unix()
	}
	return out
}

// secondsInWindow filters sorted Unix seconds to a window.
func secondsInWindow(sorted []int64, w weblog.Window) []int64 {
	lo, hi := w.Start.Unix(), w.Start.Add(w.Duration).Unix()
	out := make([]int64, 0, 1024)
	for _, s := range sorted {
		if s >= lo && s < hi {
			out = append(out, s)
		}
	}
	return out
}

// sessionsInWindow returns the sessions initiated inside a window (the
// paper assigns a session to the interval containing its start).
func sessionsInWindow(sessions []session.Session, w weblog.Window) []session.Session {
	end := w.Start.Add(w.Duration)
	out := make([]session.Session, 0, 1024)
	for _, s := range sessions {
		if !s.Start.Before(w.Start) && s.Start.Before(end) {
			out = append(out, s)
		}
	}
	return out
}
