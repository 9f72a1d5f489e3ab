package core

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"fullweb/internal/parallel"
	"fullweb/internal/session"
	"fullweb/internal/weblog"
)

// Analysis is the FULL-Web analysis of one log, computed part by part:
// each part of FullWebModel is computed the first time it is asked for,
// fanned out on the analyzer's pool, and cached with its error latched,
// so a caller that reads only some parts (one experiment of the paper)
// pays only for those, and callers that share an Analysis share the
// work. An Analysis is safe for concurrent use: concurrent callers of a
// part wait for its one computation. A part runs under the context of
// its first caller, so cancelling that context latches the
// cancellation. Parts depend only on parts listed above them in the
// struct, so waiting for one never cycles. Results are shared and must
// not be modified.
type Analysis struct {
	a     *Analyzer
	store *weblog.Store

	sessions        part[[]session.Session]
	windows         part[map[weblog.WorkloadLevel]weblog.Window]
	requestArrivals part[*ArrivalAnalysis]
	sessionArrivals part[*ArrivalAnalysis]
	requestPoisson  part[map[weblog.WorkloadLevel]*PoissonAnalysis]
	sessionPoisson  part[map[weblog.WorkloadLevel]*PoissonAnalysis]
	// tails is indexed like AllCharacteristics.
	tails [3]part[*TailTable]
}

// part is one lazily computed piece of an Analysis.
type part[T any] struct {
	once sync.Once
	val  T
	err  error
}

// get computes the part on first use and returns the latched outcome.
func (p *part[T]) get(compute func() (T, error)) (T, error) {
	p.once.Do(func() { p.val, p.err = compute() })
	return p.val, p.err
}

// NewAnalysis returns the lazy analysis of a store's log. Nothing is
// computed until a part is asked for.
func (a *Analyzer) NewAnalysis(store *weblog.Store) *Analysis {
	return &Analysis{a: a, store: store}
}

// Sessions returns the log's sessions at the configured threshold.
func (x *Analysis) Sessions(ctx context.Context) ([]session.Session, error) {
	return x.sessions.get(func() ([]session.Session, error) {
		sessions, err := session.SessionizeCtx(ctx, x.store.All(), x.a.cfg.SessionThreshold)
		if err != nil {
			return nil, fmt.Errorf("core: sessionizing: %w", err)
		}
		return sessions, nil
	})
}

// TypicalWindows returns the Low/Med/High windows of Sections 4.2 and
// 5.1.2.
func (x *Analysis) TypicalWindows(ctx context.Context) (map[weblog.WorkloadLevel]weblog.Window, error) {
	return x.windows.get(func() (map[weblog.WorkloadLevel]weblog.Window, error) {
		windows, err := x.store.SelectTypicalWindows(x.a.cfg.WindowDuration)
		if err != nil {
			return nil, fmt.Errorf("core: window selection: %w", err)
		}
		return windows, nil
	})
}

// WindowSessions returns the sessions initiated inside the typical
// window of one workload level (the paper assigns a session to the
// interval containing its start); none when the log has no such window.
func (x *Analysis) WindowSessions(ctx context.Context, level weblog.WorkloadLevel) ([]session.Session, error) {
	sessions, err := x.Sessions(ctx)
	if err != nil {
		return nil, err
	}
	windows, err := x.TypicalWindows(ctx)
	if err != nil {
		return nil, err
	}
	w, ok := windows[level]
	if !ok {
		return nil, nil
	}
	return sessionsInWindow(sessions, w), nil
}

// RequestArrivals returns the Section 4.1 analysis of the requests per
// second.
func (x *Analysis) RequestArrivals(ctx context.Context) (*ArrivalAnalysis, error) {
	return x.requestArrivals.get(func() (*ArrivalAnalysis, error) {
		counts, err := x.store.CountsPerSecond()
		if err != nil {
			return nil, fmt.Errorf("core: request series: %w", err)
		}
		res, err := x.a.AnalyzeArrivalSeriesCtx(ctx, counts)
		if err != nil {
			return nil, fmt.Errorf("core: request arrivals: %w", err)
		}
		return res, nil
	})
}

// SessionArrivals returns the Section 5.1.1 analysis of the sessions
// initiated per second.
func (x *Analysis) SessionArrivals(ctx context.Context) (*ArrivalAnalysis, error) {
	return x.sessionArrivals.get(func() (*ArrivalAnalysis, error) {
		sessions, err := x.Sessions(ctx)
		if err != nil {
			return nil, err
		}
		counts, err := session.InitiatedPerSecond(sessions)
		if err != nil {
			return nil, fmt.Errorf("core: session series: %w", err)
		}
		res, err := x.a.AnalyzeArrivalSeriesCtx(ctx, counts)
		if err != nil {
			return nil, fmt.Errorf("core: session arrivals: %w", err)
		}
		return res, nil
	})
}

// RequestPoisson returns the Section 4.2 batteries on the request
// arrivals of each typical window.
func (x *Analysis) RequestPoisson(ctx context.Context) (map[weblog.WorkloadLevel]*PoissonAnalysis, error) {
	return x.requestPoisson.get(func() (map[weblog.WorkloadLevel]*PoissonAnalysis, error) {
		return x.poisson(ctx, "request", func(w weblog.Window) []int64 {
			return recordSeconds(x.store, w)
		})
	})
}

// SessionPoisson returns the Section 5.1.2 batteries on the session
// initiations of each typical window.
func (x *Analysis) SessionPoisson(ctx context.Context) (map[weblog.WorkloadLevel]*PoissonAnalysis, error) {
	return x.sessionPoisson.get(func() (map[weblog.WorkloadLevel]*PoissonAnalysis, error) {
		sessions, err := x.Sessions(ctx)
		if err != nil {
			return nil, err
		}
		starts := session.StartSeconds(sessions)
		return x.poisson(ctx, "session", func(w weblog.Window) []int64 {
			return secondsInWindow(starts, w)
		})
	})
}

// poisson fans one battery per typical window out on the pool, in
// ascending level order, and keys the results by level.
func (x *Analysis) poisson(ctx context.Context, kind string, events func(weblog.Window) []int64) (map[weblog.WorkloadLevel]*PoissonAnalysis, error) {
	windows, err := x.TypicalWindows(ctx)
	if err != nil {
		return nil, err
	}
	levels := orderedLevels(windows)
	runs, err := parallel.Map(ctx, x.a.pool, len(levels), func(ctx context.Context, i int) (*PoissonAnalysis, error) {
		w := windows[levels[i]]
		pa, err := x.a.AnalyzePoissonCtx(ctx, levels[i], w, events(w))
		if err != nil {
			return nil, fmt.Errorf("core: %s Poisson %v: %w", kind, levels[i], err)
		}
		return pa, nil
	})
	if err != nil {
		return nil, err
	}
	out := make(map[weblog.WorkloadLevel]*PoissonAnalysis, len(levels))
	for i, level := range levels {
		out[level] = runs[i]
	}
	return out, nil
}

// Tails returns the tail table of one intra-session characteristic:
// the Week row and one row per typical window, fanned out on the pool.
func (x *Analysis) Tails(ctx context.Context, char string) (*TailTable, error) {
	idx := slices.Index(AllCharacteristics(), char)
	if idx < 0 {
		return nil, fmt.Errorf("core: unknown characteristic %q", char)
	}
	return x.tails[idx].get(func() (*TailTable, error) {
		sessions, err := x.Sessions(ctx)
		if err != nil {
			return nil, err
		}
		windows, err := x.TypicalWindows(ctx)
		if err != nil {
			return nil, err
		}
		intervals := []string{IntervalWeek}
		subsets := [][]session.Session{sessions}
		for _, level := range orderedLevels(windows) {
			intervals = append(intervals, level.String())
			subsets = append(subsets, sessionsInWindow(sessions, windows[level]))
		}
		rows, err := parallel.Map(ctx, x.a.pool, len(intervals), func(ctx context.Context, i int) (TailAnalysis, error) {
			return x.a.AnalyzeTailCtx(ctx, char, intervals[i], CharacteristicValues(char, subsets[i]))
		})
		if err != nil {
			return nil, err
		}
		table := &TailTable{Characteristic: char, Rows: make(map[string]TailAnalysis, len(rows))}
		for i, interval := range intervals {
			table.Rows[interval] = rows[i]
		}
		return table, nil
	})
}
