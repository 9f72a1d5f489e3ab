package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"fullweb/internal/dist"
	"fullweb/internal/fgn"
	"fullweb/internal/weblog"
)

var (
	// ErrBadConfig is returned for invalid generation parameters.
	ErrBadConfig = errors.New("workload: invalid config")
)

const (
	// sessionGapCap keeps every intra-session request gap strictly below
	// the 30-minute sessionization threshold, so the planted sessions are
	// exactly recoverable.
	sessionGapCap = 1790.0
	// byteCap truncates the per-session byte total; needed to keep the
	// alpha < 1 profiles (CSEE) generable at all.
	byteCap = float64(1 << 31)
	// minDuration is the Pareto location of the session-length
	// distribution (seconds).
	minDuration = 30.0
	// tailShare is the mixture weight of the Pareto tail component of the
	// requests-per-session distribution; the body is exponential so the
	// Table 1 mean can be matched independently of the tail index.
	tailShare = 0.1
	// reqTailXmFactor sets the Pareto location of the requests-per-session
	// tail relative to the profile's mean session length: starting the
	// tail well above the body scale makes the Pareto component dominate
	// the upper tail at sample-observable probabilities (with a small xm
	// the exponential body out-masses the tail until CCDFs of ~1e-6,
	// which no finite trace ever sees).
	reqTailXmFactor = 2.0
	// lrdSigma scales the lognormal fGn modulation of the session arrival
	// intensity.
	lrdSigma = 0.6
)

// ArrivalSource selects the long-range dependence mechanism of the
// session arrival intensity.
type ArrivalSource int

const (
	// FGNModulated modulates the intensity with exact fractional
	// Gaussian noise (lognormal link) — the default.
	FGNModulated ArrivalSource = iota + 1
	// OnOffAggregate modulates the intensity with the superposition of
	// heavy-tailed ON/OFF sources (Willinger et al.), the physical
	// mechanism the paper cites. Same asymptotic Hurst parameter, rougher
	// small-scale structure; kept as an ablation of the design choice.
	OnOffAggregate
)

// Config controls trace generation.
type Config struct {
	// Scale multiplies the Table 1 volumes; 1.0 reproduces full-size
	// traces, the repro harness defaults to 0.1 for laptop runtimes.
	Scale float64
	// Seed makes the trace reproducible.
	Seed int64
	// Start is the trace start time; the zero value means
	// 2004-01-12 00:00 UTC (the paper's WVU start date).
	Start time.Time
	// Days is the horizon length; 0 means the paper's one week.
	Days int
	// Source selects the LRD mechanism; zero value means FGNModulated.
	Source ArrivalSource
}

func (c Config) withDefaults() Config {
	if c.Start.IsZero() {
		c.Start = time.Date(2004, 1, 12, 0, 0, 0, 0, time.UTC)
	}
	if c.Days == 0 {
		c.Days = 7
	}
	return c
}

func (c Config) validate() error {
	if c.Scale <= 0 || math.IsNaN(c.Scale) || c.Scale > 10 {
		return fmt.Errorf("%w: scale %v", ErrBadConfig, c.Scale)
	}
	if c.Days < 0 || c.Days > 60 {
		return fmt.Errorf("%w: days %v", ErrBadConfig, c.Days)
	}
	switch c.Source {
	case 0, FGNModulated, OnOffAggregate:
	default:
		return fmt.Errorf("%w: arrival source %d", ErrBadConfig, int(c.Source))
	}
	return nil
}

// Trace is a generated synthetic log with its planted ground truth.
type Trace struct {
	// Records is the log, sorted by time.
	Records []weblog.Record
	// Profile and Config echo the generation inputs.
	Profile Profile
	Config  Config
	// PlantedSessions is the number of sessions generated; sessionizing
	// Records with the default threshold recovers exactly this count.
	PlantedSessions int
}

// Generate synthesizes a trace for the profile: session arrivals follow a
// doubly stochastic Poisson process whose intensity carries the profile's
// diurnal cycle, trend, and fGn-driven long-range dependence; each
// session draws its duration, request count and byte volume from the
// profile's heavy-tailed marks. Every session gets a unique client IP so
// that sessionization with the default threshold recovers the planted
// sessions exactly (documented substitution: the paper's IP-as-user
// approximation is not itself under study).
func Generate(p Profile, cfg Config) (*Trace, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	rng := rand.New(rand.NewSource(cfg.Seed))
	horizon := cfg.Days * 86400
	targetSessions := float64(p.SessionsWeek) * cfg.Scale * float64(cfg.Days) / 7
	if targetSessions < 10 {
		return nil, fmt.Errorf("%w: scale %v yields only %.1f sessions for %s", ErrBadConfig, cfg.Scale, targetSessions, p.Name)
	}
	source := cfg.Source
	if source == 0 {
		source = FGNModulated
	}
	intensity, err := sessionIntensity(rng, p, source, horizon, targetSessions)
	if err != nil {
		return nil, err
	}
	marks, err := newMarkSampler(p)
	if err != nil {
		return nil, err
	}
	var records []weblog.Record
	sessionID := 0
	for sec := 0; sec < horizon; sec++ {
		k, err := dist.PoissonSample(rng, intensity[sec])
		if err != nil {
			return nil, fmt.Errorf("workload: arrivals at %d: %w", sec, err)
		}
		for i := 0; i < k; i++ {
			recs := marks.session(rng, cfg.Start, sec, sessionID)
			records = append(records, recs...)
			sessionID++
		}
	}
	if sessionID == 0 {
		return nil, fmt.Errorf("workload: %s generated no sessions (scale too small?)", p.Name)
	}
	sort.SliceStable(records, func(i, j int) bool { return records[i].Time.Before(records[j].Time) })
	return &Trace{
		Records:         records,
		Profile:         p,
		Config:          cfg,
		PlantedSessions: sessionID,
	}, nil
}

// sessionIntensity builds the per-second session arrival intensity:
// diurnal cycle x trend x LRD modulation, normalized to the target
// session count. The modulation comes from exact fGn (lognormal link)
// or from an aggregate of heavy-tailed ON/OFF sources, per source.
func sessionIntensity(rng *rand.Rand, p Profile, source ArrivalSource, horizon int, target float64) ([]float64, error) {
	// Modulation at 60-second resolution keeps the synthesis transforms
	// small and still plants LRD at all the scales the estimators
	// examine.
	const modStep = 60
	modN := horizon/modStep + 1
	mod, err := lrdModulation(rng, p, source, modN)
	if err != nil {
		return nil, fmt.Errorf("workload: intensity modulation: %w", err)
	}
	out := make([]float64, horizon)
	sum := 0.0
	for sec := 0; sec < horizon; sec++ {
		tod := float64(sec%86400) / 86400
		// Peak in the afternoon, trough before dawn.
		diurnal := 1 + p.DiurnalAmplitude*math.Sin(2*math.Pi*(tod-0.4))
		trend := 1 + p.TrendSlope*float64(sec)/float64(horizon)
		v := diurnal * trend * mod[sec/modStep]
		out[sec] = v
		sum += v
	}
	norm := target / sum
	for i := range out {
		out[i] *= norm
	}
	return out, nil
}

// lrdModulation returns a positive, roughly unit-mean modulation series
// with the profile's Hurst parameter.
func lrdModulation(rng *rand.Rand, p Profile, source ArrivalSource, n int) ([]float64, error) {
	switch source {
	case FGNModulated:
		noise, err := fgn.Generate(rng, p.Hurst, n)
		if err != nil {
			return nil, err
		}
		out := make([]float64, n)
		for i, z := range noise {
			out[i] = math.Exp(lrdSigma*z - lrdSigma*lrdSigma/2)
		}
		return out, nil
	case OnOffAggregate:
		alpha := 3 - 2*p.Hurst // inverse of H = (3 - alpha)/2
		agg, err := fgn.GenerateOnOff(rng, fgn.OnOffConfig{
			Sources:   64,
			Alpha:     alpha,
			MinPeriod: 1,
			Rate:      1,
		}, n)
		if err != nil {
			return nil, err
		}
		// Shift so the modulation stays positive even when all sources
		// are OFF, and normalize to roughly unit mean (the caller
		// renormalizes exactly anyway).
		mean := 0.0
		for _, v := range agg {
			mean += v
		}
		mean /= float64(n)
		out := make([]float64, n)
		for i, v := range agg {
			out[i] = (v + 1) / (mean + 1)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("%w: arrival source %d", ErrBadConfig, int(source))
	}
}

// markSampler draws the intra-session characteristics of one profile.
type markSampler struct {
	profile     Profile
	duration    dist.Pareto
	reqTail     dist.Pareto
	reqBodyMean float64
	bytes       dist.Pareto
	// paths ranks document popularity Zipf-like (Arlitt & Williamson,
	// the paper's reference [2]: file popularity concentrates heavily on
	// a small hot set).
	paths *dist.Zipf
}

func newMarkSampler(p Profile) (*markSampler, error) {
	duration, err := dist.NewPareto(p.AlphaDuration, minDuration)
	if err != nil {
		return nil, fmt.Errorf("workload: duration distribution: %w", err)
	}
	reqTailXm := reqTailXmFactor * p.MeanRequestsPerSession()
	reqTail, err := dist.NewPareto(p.AlphaRequests, reqTailXm)
	if err != nil {
		return nil, fmt.Errorf("workload: request-count distribution: %w", err)
	}
	// Solve the mixture body mean so the overall mean matches Table 1:
	// E[n] ~ 1 + (1-tailShare)*bodyMean + tailShare*E[floor Pareto].
	tailMean := truncatedParetoMean(p.AlphaRequests, reqTailXm, 1e7)
	bodyMean := (p.MeanRequestsPerSession() - 1 - tailShare*tailMean) / (1 - tailShare)
	if bodyMean < 0 {
		bodyMean = 0
	}
	xmBytes, err := calibrateTruncatedParetoXm(p.AlphaBytes, byteCap, p.MeanBytesPerSession())
	if err != nil {
		return nil, fmt.Errorf("workload: byte distribution: %w", err)
	}
	bytesDist, err := dist.NewPareto(p.AlphaBytes, xmBytes)
	if err != nil {
		return nil, fmt.Errorf("workload: byte distribution: %w", err)
	}
	paths, err := dist.NewZipf(4096, 0.8)
	if err != nil {
		return nil, fmt.Errorf("workload: path popularity: %w", err)
	}
	return &markSampler{
		profile:     p,
		duration:    duration,
		reqTail:     reqTail,
		reqBodyMean: bodyMean,
		bytes:       bytesDist,
		paths:       paths,
	}, nil
}

// session generates the records of one session starting in the given
// second.
func (m *markSampler) session(rng *rand.Rand, start time.Time, sec, id int) []weblog.Record {
	// Request count: exponential body + Pareto tail mixture.
	var n int
	if rng.Float64() < tailShare {
		n = 1 + int(m.reqTail.Sample(rng))
	} else {
		n = 1 + int(rng.ExpFloat64()*m.reqBodyMean)
	}
	if n < 1 {
		n = 1
	}
	// Duration and request times.
	times := make([]float64, n)
	base := float64(sec)
	times[0] = base
	if n > 1 {
		d := m.duration.Sample(rng)
		if maxD := float64(n-1) * sessionGapCap; d > maxD {
			d = maxD
		}
		// Split the duration into n-1 gaps proportional to exponential
		// weights, each capped below the sessionization threshold.
		gaps := make([]float64, n-1)
		wsum := 0.0
		for i := range gaps {
			gaps[i] = rng.ExpFloat64() + 1e-9
			wsum += gaps[i]
		}
		t := base
		for i := range gaps {
			g := d * gaps[i] / wsum
			if g > sessionGapCap {
				g = sessionGapCap
			}
			t += g
			times[i+1] = t
		}
	}
	// Bytes: truncated Pareto split across requests.
	total := m.bytes.Sample(rng)
	for total > byteCap {
		total = m.bytes.Sample(rng)
	}
	shares := make([]float64, n)
	ssum := 0.0
	for i := range shares {
		shares[i] = rng.ExpFloat64() + 1e-9
		ssum += shares[i]
	}
	host := hostFor(id)
	records := make([]weblog.Record, n)
	assigned := int64(0)
	for i := 0; i < n; i++ {
		b := int64(total * shares[i] / ssum)
		assigned += b
		if i == n-1 {
			b += int64(total) - assigned
			if b < 0 {
				b = 0
			}
		}
		status := 200
		switch r := rng.Float64(); {
		case r < 0.01:
			status = 500
		case r < 0.04:
			status = 404
		case r < 0.10:
			status = 304
		}
		records[i] = weblog.Record{
			Host:   host,
			Time:   start.Add(time.Duration(times[i]) * time.Second),
			Method: "GET",
			Path:   fmt.Sprintf("/obj/%d", m.paths.Sample(rng)),
			Proto:  "HTTP/1.0",
			Status: status,
			Bytes:  b,
		}
	}
	return records
}

// hostFor maps a session id to a unique synthetic IPv4 address.
func hostFor(id int) string {
	return fmt.Sprintf("10.%d.%d.%d", (id>>16)&0xff, (id>>8)&0xff, id&0xff)
}

// truncatedParetoMean returns the mean of a Pareto(alpha, xm) truncated
// (by resampling) at cap.
func truncatedParetoMean(alpha, xm, cap float64) float64 {
	if cap <= xm {
		return xm
	}
	// E[X | X <= cap] = Int_xm^cap x f(x) dx / F(cap).
	fCap := 1 - math.Pow(xm/cap, alpha)
	var num float64
	if alpha == 1 {
		num = xm * math.Log(cap/xm)
	} else {
		num = alpha * xm / (alpha - 1) * (1 - math.Pow(xm/cap, alpha-1))
	}
	return num / fCap
}

// calibrateTruncatedParetoXm finds the Pareto location xm so that the
// cap-truncated mean equals target, by bisection. This is what lets the
// alpha <= 1 profiles (infinite untruncated mean) hit their Table 1 byte
// volumes.
func calibrateTruncatedParetoXm(alpha, cap, target float64) (float64, error) {
	if target <= 0 || cap <= target {
		return 0, fmt.Errorf("workload: cannot calibrate xm for target mean %v under cap %v", target, cap)
	}
	lo, hi := 1e-6, target
	for iter := 0; iter < 200; iter++ {
		mid := (lo + hi) / 2
		if truncatedParetoMean(alpha, mid, cap) < target {
			lo = mid
		} else {
			hi = mid
		}
	}
	xm := (lo + hi) / 2
	got := truncatedParetoMean(alpha, xm, cap)
	if math.Abs(got-target)/target > 0.05 {
		return 0, fmt.Errorf("workload: xm calibration failed: alpha=%v cap=%v target=%v best=%v", alpha, cap, target, got)
	}
	return xm, nil
}
