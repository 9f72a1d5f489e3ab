package heavytail

import (
	"fmt"
	"math"
	"math/rand"
)

// Reservoir maintains a uniform random sample of a stream (Vitter's
// Algorithm R) with a fixed capacity and an explicit seeded generator,
// so the sample — and everything estimated from it — is a deterministic
// function of the input stream and the seed. While the stream is no
// longer than the capacity the reservoir holds every observation, so
// downstream estimators coincide exactly with their batch versions;
// beyond that each observation is retained with probability k/n.
type Reservoir struct {
	items []float64
	cap   int
	seed  int64
	seen  int64
	rng   *rand.Rand
}

// NewReservoir returns a reservoir of the given capacity seeded
// deterministically.
func NewReservoir(capacity int, seed int64) (*Reservoir, error) {
	if capacity < 1 {
		return nil, fmt.Errorf("%w: reservoir capacity %d", ErrBadParam, capacity)
	}
	return &Reservoir{
		items: make([]float64, 0, capacity),
		cap:   capacity,
		seed:  seed,
		rng:   rand.New(rand.NewSource(seed)),
	}, nil
}

// Observe feeds one value.
func (r *Reservoir) Observe(v float64) {
	r.seen++
	if len(r.items) < r.cap {
		r.items = append(r.items, v)
		return
	}
	if j := r.rng.Int63n(r.seen); j < int64(r.cap) {
		r.items[j] = v
	}
}

// Seen returns how many values have been observed.
func (r *Reservoir) Seen() int64 { return r.seen }

// Len returns the current sample size (min(seen, capacity)).
func (r *Reservoir) Len() int { return len(r.items) }

// Sample returns a defensive copy of the current sample in retention
// order (a deterministic function of the input stream and seed). The
// copy is the contract: callers sort, truncate or otherwise mutate the
// returned slice freely — between a snapshot estimate and a checkpoint,
// for instance — without perturbing the sketch state behind it.
func (r *Reservoir) Sample() []float64 {
	out := make([]float64, len(r.items))
	copy(out, r.items)
	return out
}

// MergeReservoirs combines reservoirs of equal capacity into one
// sample of their concatenated streams, deterministically. While the
// parts' samples together fit the capacity — which holds exactly when
// every part still retains its full stream — the merge is their
// concatenation in argument order: an exact, partition-independent
// sample of the union (as a multiset). Beyond capacity the merge draws
// the capacity items without replacement from the parts, each part
// weighted by the stream count its sample represents, using a fresh
// generator seeded with seed — deterministic given the seed and the
// argument order, with the documented sampling tolerance (DESIGN.md
// §12). The parts are not modified.
//
// The merged reservoir is a snapshot-time value: estimate from it, but
// do not checkpoint it — its RNG-replay state describes the derived
// seed, not any part's observation history. Checkpoints carry the
// observed reservoirs instead.
func MergeReservoirs(seed int64, parts ...*Reservoir) (*Reservoir, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: merging zero reservoirs", ErrBadParam)
	}
	capacity := parts[0].cap
	totalItems := 0
	var totalSeen int64
	for _, p := range parts {
		if p.cap != capacity {
			return nil, fmt.Errorf("%w: merging reservoirs with capacities %d and %d", ErrBadParam, capacity, p.cap)
		}
		totalItems += len(p.items)
		totalSeen += p.seen
	}
	out, err := NewReservoir(capacity, seed)
	if err != nil {
		return nil, err
	}
	if totalItems <= capacity {
		for _, p := range parts {
			out.items = append(out.items, p.items...)
		}
		out.seen = totalSeen
		return out, nil
	}
	// Weighted draw: each part's items stand in for seen/len(items)
	// stream observations apiece; pick the source part proportionally
	// to the stream mass it still represents, then a uniform item
	// within it (swap-removed so the draw is without replacement).
	type src struct {
		items []float64
		mass  float64 // remaining represented stream count
		per   float64 // represented count per item
	}
	srcs := make([]src, 0, len(parts))
	for _, p := range parts {
		if len(p.items) == 0 {
			continue
		}
		srcs = append(srcs, src{
			items: append([]float64(nil), p.items...),
			mass:  float64(p.seen),
			per:   float64(p.seen) / float64(len(p.items)),
		})
	}
	for len(out.items) < capacity {
		var total float64
		for i := range srcs {
			total += srcs[i].mass
		}
		x := out.rng.Float64() * total
		pick := len(srcs) - 1
		for i := range srcs {
			if x < srcs[i].mass {
				pick = i
				break
			}
			x -= srcs[i].mass
		}
		s := &srcs[pick]
		j := out.rng.Intn(len(s.items))
		out.items = append(out.items, s.items[j])
		s.items[j] = s.items[len(s.items)-1]
		s.items = s.items[:len(s.items)-1]
		s.mass -= s.per
		if s.mass < 0 {
			s.mass = 0
		}
		if len(s.items) == 0 {
			srcs = append(srcs[:pick], srcs[pick+1:]...)
		}
	}
	out.seen = totalSeen
	return out, nil
}

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
	return &OnlineHill{res: res, tailFraction: tailFraction, relTol: relTol}, nil
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
// EstimateHill only reads its input (HillPlot sorts a copy), so the
// live sample is passed without another copy.
func (h *OnlineHill) Estimate() (HillResult, error) {
	return EstimateHill(h.res.items, h.tailFraction, h.relTol)
}

// MergeOnlineHills combines Hill estimators into one covering
// their concatenated streams: the reservoirs merge via MergeReservoirs
// (exact while the union fits capacity, seeded weighted draw beyond)
// and the dropped counts add. All parts must share the read-off
// parameters. Like a merged reservoir, the result is for snapshot-time
// estimation, not for checkpointing; the parts are not modified.
func MergeOnlineHills(seed int64, parts ...*OnlineHill) (*OnlineHill, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("%w: merging zero Hill estimators", ErrBadParam)
	}
	reservoirs := make([]*Reservoir, len(parts))
	var dropped int64
	for i, p := range parts {
		if p.tailFraction != parts[0].tailFraction || p.relTol != parts[0].relTol {
			return nil, fmt.Errorf("%w: merging Hill estimators with different read-off parameters", ErrBadParam)
		}
		reservoirs[i] = p.res
		dropped += p.dropped
	}
	res, err := MergeReservoirs(seed, reservoirs...)
	if err != nil {
		return nil, err
	}
	return &OnlineHill{
		res:          res,
		tailFraction: parts[0].tailFraction,
		relTol:       parts[0].relTol,
		dropped:      dropped,
	}, nil
}
