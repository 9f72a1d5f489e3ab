// Package faultpoint is the repo's deterministic fault-injection
// framework: named injection sites threaded through ingestion
// (weblog), the streaming engine (stream) and the worker pool
// (parallel) let tests — and the `-faults` CLI flag — force short
// reads, transient open failures, mid-chunk parse crashes and
// fold/snapshot/checkpoint faults on demand, without touching the
// code under test.
//
// Sites are registered once, at package level:
//
//	var fpRead = faultpoint.NewSite("weblog.read")
//
// and checked on the hot path with a context lookup that is a nil
// check when no faults are armed:
//
//	if err := fpRead.Check(ctx); err != nil { return err }
//
// Faults are armed by parsing a spec (the `-faults` flag or the
// FULLWEB_FAULTS environment variable) into a Set and attaching it to
// the context with With. Triggers are counted or seeded-random, never
// wall-clock- or scheduling-based, so the same spec over the same
// input produces the same faults at the same points — the injection
// framework obeys the same determinism contract as the analyses it
// perturbs (DESIGN.md §11).
//
// The faultguard lint rule keeps the site inventory honest: every
// registered name must be a package-level string literal, prefixed
// with its package name, unique, and exercised by at least one test
// in the registering package.
package faultpoint

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"fullweb/internal/obs"
)

// Site is one named injection point. Construct with NewSite at
// package level; Check is safe for concurrent use.
type Site struct{ name string }

var (
	regMu      sync.Mutex
	registered = make(map[string]bool)
)

// NewSite registers a named fault-injection site. Names must be
// non-empty and globally unique; a duplicate registration panics,
// which surfaces at init time of the offending package. The
// faultguard lint rule additionally requires the name to be a string
// literal prefixed with "<package>.".
func NewSite(name string) *Site {
	if name == "" {
		panic("faultpoint: empty site name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if registered[name] {
		panic("faultpoint: duplicate site " + name)
	}
	registered[name] = true
	return &Site{name: name}
}

// Sites returns the sorted names of every registered site — the
// vocabulary Parse validates specs against.
func Sites() []string {
	regMu.Lock()
	defer regMu.Unlock()
	out := make([]string, 0, len(registered))
	for name := range registered {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Fault is the error injected when an armed site fires.
type Fault struct {
	// Site is the registered site name.
	Site string
	// Hit is the 1-based hit count at which the site fired.
	Hit int64
}

// Error implements the error interface.
func (f *Fault) Error() string {
	return fmt.Sprintf("faultpoint: injected fault at %s (hit %d)", f.Site, f.Hit)
}

// IsFault reports whether err is (or wraps) an injected fault.
func IsFault(err error) bool {
	var f *Fault
	return errors.As(err, &f)
}

// arm is the armed trigger of one site.
type arm struct {
	hitN  int64   // fire on exactly the Nth hit (1-based)
	every int64   // fire on every k-th hit
	rate  float64 // seeded Bernoulli probability per hit
	times int64   // cap on total fires; 0 = unlimited
	seed  uint64  // rate-trigger stream seed

	hits  int64
	fires int64
}

// Set is a parsed, armed fault spec. A nil *Set is a valid disabled
// set (every Check is a no-op); constructed sets are safe for
// concurrent use.
type Set struct {
	mu   sync.Mutex
	arms map[string]*arm
}

// Parse builds a Set from a spec string:
//
//	spec   := clause (';' clause)*
//	clause := site '=' trigger (',' option)*
//
// with triggers `hit:N` (fire on exactly the Nth hit), `every:N`
// (fire on hits N, 2N, 3N, ...) and `rate:P` (seeded Bernoulli with
// probability P per hit), and options `times:K` (cap total fires) and
// `seed:S` (rate stream seed, default 1). Site names are validated
// against the registry. An empty spec yields nil (nothing armed).
func Parse(spec string) (*Set, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	set := &Set{arms: make(map[string]*arm)}
	for _, clause := range strings.Split(spec, ";") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		site, rest, ok := strings.Cut(clause, "=")
		site = strings.TrimSpace(site)
		if !ok || site == "" {
			return nil, fmt.Errorf("faultpoint: bad clause %q (want site=trigger)", clause)
		}
		if !known(site) {
			return nil, fmt.Errorf("faultpoint: unknown site %q (known: %s)", site, strings.Join(Sites(), ", "))
		}
		if _, dup := set.arms[site]; dup {
			return nil, fmt.Errorf("faultpoint: site %q armed twice", site)
		}
		a := &arm{seed: 1}
		for i, part := range strings.Split(rest, ",") {
			key, val, ok := strings.Cut(strings.TrimSpace(part), ":")
			if !ok {
				return nil, fmt.Errorf("faultpoint: bad trigger %q in clause %q", part, clause)
			}
			switch key {
			case "hit", "every", "times", "seed":
				n, err := strconv.ParseInt(val, 10, 64)
				if err != nil || n < 1 {
					return nil, fmt.Errorf("faultpoint: %s wants a positive integer, got %q", key, val)
				}
				switch key {
				case "hit":
					a.hitN = n
				case "every":
					a.every = n
				case "times":
					a.times = n
				case "seed":
					a.seed = uint64(n)
				}
			case "rate":
				p, err := strconv.ParseFloat(val, 64)
				if err != nil || p <= 0 || p > 1 {
					return nil, fmt.Errorf("faultpoint: rate wants a probability in (0, 1], got %q", val)
				}
				a.rate = p
			default:
				return nil, fmt.Errorf("faultpoint: unknown key %q in clause %q", key, clause)
			}
			if i == 0 && a.hitN == 0 && a.every == 0 && a.rate == 0 {
				return nil, fmt.Errorf("faultpoint: clause %q must lead with a trigger (hit:N, every:N or rate:P)", clause)
			}
		}
		if a.hitN == 0 && a.every == 0 && a.rate == 0 {
			return nil, fmt.Errorf("faultpoint: clause %q arms no trigger", clause)
		}
		set.arms[site] = a
	}
	if len(set.arms) == 0 {
		return nil, nil
	}
	return set, nil
}

func known(site string) bool {
	regMu.Lock()
	defer regMu.Unlock()
	return registered[site]
}

// hit counts one arrival at the named site and decides whether the
// armed trigger fires.
func (s *Set) hit(site string) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	a, ok := s.arms[site]
	if !ok {
		return nil
	}
	a.hits++
	if a.times > 0 && a.fires >= a.times {
		return nil
	}
	fire := false
	switch {
	case a.hitN > 0:
		fire = a.hits == a.hitN
	case a.every > 0:
		fire = a.hits%a.every == 0
	case a.rate > 0:
		// Seeded Bernoulli: a splitmix64 stream keyed on (seed, hit
		// count), so the decision sequence is a pure function of the
		// spec — never of scheduling or the wall clock.
		fire = bernoulli(a.seed, a.hits, a.rate)
	}
	if !fire {
		return nil
	}
	a.fires++
	return &Fault{Site: site, Hit: a.hits}
}

// bernoulli draws the deterministic rate-trigger decision for one hit.
func bernoulli(seed uint64, hit int64, p float64) bool {
	x := seed + uint64(hit)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11)/(1<<53) < p
}

// SiteStats is the fire accounting of one armed site.
type SiteStats struct {
	Site  string `json:"site"`
	Hits  int64  `json:"hits"`
	Fires int64  `json:"fires"`
}

// Stats returns per-site hit/fire counts in site-name order — the
// deterministic summary the CLI prints after a faulted run.
func (s *Set) Stats() []SiteStats {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.arms))
	for name := range s.arms {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]SiteStats, 0, len(names))
	for _, name := range names {
		a := s.arms[name]
		out = append(out, SiteStats{Site: name, Hits: a.hits, Fires: a.fires})
	}
	return out
}

// ctxKey keys the armed Set in a context.
type ctxKey struct{}

// With returns ctx carrying the armed set. A nil set returns ctx
// unchanged.
func With(ctx context.Context, s *Set) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKey{}, s)
}

// From extracts the armed set from ctx (nil when none is attached).
func From(ctx context.Context) *Set {
	s, _ := ctx.Value(ctxKey{}).(*Set)
	return s
}

// Check counts one arrival at the site against the set armed in ctx
// and returns the injected *Fault when the trigger fires, nil
// otherwise. With no set armed this is two pointer loads — cheap
// enough for per-chunk hot paths. A fired fault also increments the
// faultpoint.injected obs counter.
func (s *Site) Check(ctx context.Context) error {
	set := From(ctx)
	if set == nil {
		return nil
	}
	err := set.hit(s.name)
	if err != nil {
		obs.MetricsFrom(ctx).Counter("faultpoint.injected").Inc()
	}
	return err
}
