package heavytail

import (
	"fmt"
	"math"
	"math/rand/v2"
)

// Reservoir maintains a uniform random sample of a stream (Vitter's
// Algorithm R) with a fixed capacity and an explicit seeded PCG
// generator, so the sample — and everything estimated from it — is a
// deterministic function of the input stream and the seed. While the
// stream is no longer than the capacity the reservoir holds every
// observation, so downstream estimators coincide exactly with their
// batch versions; beyond that each observation is retained with
// probability k/n.
type Reservoir struct {
	items []float64
	cap   int
	seen  int64
	// pcg is the generator's state, serialized by State; rng draws
	// from it.
	pcg *rand.PCG
	rng *rand.Rand
}

// pcgStream is the second PCG seed word: the seed picks the state, this
// constant (the 64-bit golden ratio) fills the other word.
const pcgStream = 0x9e3779b97f4a7c15

// NewReservoir returns a reservoir of the given capacity seeded
// deterministically.
func NewReservoir(capacity int, seed int64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: reservoir capacity %d", ErrBadParam, capacity)
	}
	pcg := rand.NewPCG(uint64(seed), pcgStream)
	return &Reservoir{
		items: make([]float64, 0, capacity),
		cap:   capacity,
		pcg:   pcg,
		rng:   rand.New(pcg),
	}, nil
}

// Observe feeds one value.
func (r *Reservoir) Observe(v float64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	if j := r.rng.Int64N(r.seen); j < int64(r.cap) {
		r.items[j] = v
	}
}

// Seen returns how many values have been observed.
func (r *Reservoir) Seen() int64 { return r.seen }

// Len returns the current sample size (min(seen, capacity)).
func (r *Reservoir) Len() int { return len(r.items) }

// OnlineHill is the streaming variant of EstimateHill: a seeded
// reservoir collects the positive observations of an unbounded stream
// and the Hill plot with stability detection runs over the sample at
// snapshot time. With the stream still inside the reservoir capacity
// the estimate is exactly the batch estimate on the same data; past it
// the sampling error is bounded by the documented tolerance
// (DESIGN.md §10). Non-positive and NaN observations are dropped at the
// door, mirroring the batch pipeline's PositiveOnly filter.
type OnlineHill struct {
	res          *Reservoir
	tailFraction float64
	relTol       float64
	dropped      int64
	// scratch holds the Hill plot's sorted working copy of the sample
	// between read-offs. Sized like the reservoir, so no read-off
	// allocates it; transient, never checkpointed (every read-off
	// overwrites it).
	scratch []float64
}

// NewOnlineHill returns a reservoir-fed Hill estimator. capacity bounds
// the sample; tailFraction and relTol configure the Hill read-off
// exactly as in EstimateHill.
func NewOnlineHill(capacity int, seed int64, tailFraction, relTol float64) (*OnlineHill, error) {
	if tailFraction <= 0 || tailFraction > 1 || math.IsNaN(tailFraction) {
		return nil, fmt.Errorf("%w: tail fraction %v", ErrBadParam, tailFraction)
	}
	if relTol <= 0 || math.IsNaN(relTol) {
		return nil, fmt.Errorf("%w: relative tolerance %v", ErrBadParam, relTol)
	}
	res, err := NewReservoir(capacity, seed)
	if err != nil {
		return nil, err
	}
	return &OnlineHill{res: res, tailFraction: tailFraction, relTol: relTol,
		scratch: make([]float64, 0, capacity)}, nil
}

// Observe feeds one value; non-positive and NaN values are ignored (and
// counted as dropped), as the Hill estimator is only defined on
// positive data.
func (h *OnlineHill) Observe(v float64) {
	if v <= 0 || math.IsNaN(v) {
		h.dropped++
		return
	}
	h.res.Observe(v)
}

// Seen returns the number of positive observations fed so far.
func (h *OnlineHill) Seen() int64 { return h.res.Seen() }

// SampleLen returns the current reservoir sample size.
func (h *OnlineHill) SampleLen() int { return h.res.Len() }

// Estimate runs EstimateHill over the current reservoir sample. The
// estimator keeps accumulating afterwards; call at every snapshot.
// The Hill plot sorts a copy of the live sample, built in the
// estimator's reused scratch, so a read-off leaves the sample as it was
// and allocates no copy of it.
func (h *OnlineHill) Estimate() (HillResult, error) {
	return estimateHillInto(h.scratch, h.res.items, h.tailFraction, h.relTol)
}
