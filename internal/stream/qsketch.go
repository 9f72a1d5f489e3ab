package stream

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
)

// MinQuantileCap is the smallest accepted quantile-sketch capacity.
const MinQuantileCap = 16

// DefaultQuantileCap is the engine's default level-0 buffer size,
// matching the Hill reservoir default so the exact regimes of the two
// sketches coincide.
const DefaultQuantileCap = 8192

// QuantileSketch is a deterministic quantile sketch in the
// Munro–Paterson / MRL family: a flat buffer of weight-1 observations
// plus a ladder of sorted buffers whose items carry weight 2^h. When
// the level-0 buffer fills it is sorted and promoted; when two buffers
// of equal weight meet they are merge-sorted and compacted to half
// size by keeping alternating elements (the alternation offset flips
// deterministically per height, so the sketch is a pure function of
// the observation sequence — no randomness, unlike sampled KLL).
//
// While fewer than 2×capacity observations have arrived no compaction
// has happened and every quantile is exact, computed with the same
// interpolation convention as stats.Quantile — so below capacity the
// streaming quantiles coincide with the batch pipeline's exactly.
// Beyond that the rank error of a query is bounded by roughly
// log2(n/capacity)/(2·capacity) of the stream length per compacted
// level; the engine-facing tolerance is documented in DESIGN.md §12.
// Not safe for concurrent use — a read-off updates the sorted view of
// the buffer too.
type QuantileSketch struct {
	cap    int
	n      int64
	buf    []float64   // weight-1 items in arrival order, len < cap
	levels [][]float64 // levels[h]: nil, or exactly cap sorted items of weight 2^h
	flips  []bool      // per-height compaction offset alternation
	// view is buf[:len(view)] sorted: the level-0 items a read-off has
	// already ordered. Each read-off sorts only the items appended
	// since the last one and merges them in (syncView); promotion
	// empties it. Derived state: State omits it, Restore rebuilds it.
	view []float64
}

// NewQuantileSketch returns a sketch whose level-0 buffer holds
// capacity observations (even, >= MinQuantileCap).
func NewQuantileSketch(capacity int) (*QuantileSketch, error) {
	if capacity < MinQuantileCap {
		return nil, fmt.Errorf("%w: quantile sketch capacity %d (need >= %d)", ErrBadConfig, capacity, MinQuantileCap)
	}
	if capacity%2 != 0 {
		return nil, fmt.Errorf("%w: quantile sketch capacity %d must be even", ErrBadConfig, capacity)
	}
	return &QuantileSketch{cap: capacity, buf: make([]float64, 0, capacity), view: make([]float64, 0, capacity)}, nil
}

// Cap returns the level-0 buffer capacity.
func (s *QuantileSketch) Cap() int { return s.cap }

// N returns the observation count.
func (s *QuantileSketch) N() int64 { return s.n }

// Stored returns the number of retained items across the level-0
// buffer and the compacted ladder — the sketch's live memory footprint
// in items, surfaced as a telemetry gauge.
func (s *QuantileSketch) Stored() int {
	n := len(s.buf)
	for _, lv := range s.levels {
		n += len(lv)
	}
	return n
}

// Observe feeds one value.
func (s *QuantileSketch) Observe(v float64) {
	s.n++
	s.buf = append(s.buf, v)
	if len(s.buf) == s.cap {
		full := make([]float64, s.cap)
		copy(full, s.buf)
		sort.Float64s(full)
		s.buf = s.buf[:0]
		s.view = s.view[:0]
		s.place(full, 0)
	}
}

// place inserts a sorted buffer of weight 2^h at height h, cascading
// compactions while the slot is occupied.
func (s *QuantileSketch) place(carry []float64, h int) {
	for {
		for len(s.levels) <= h {
			s.levels = append(s.levels, nil)
			s.flips = append(s.flips, false)
		}
		if s.levels[h] == nil {
			s.levels[h] = carry
			return
		}
		merged := mergeSorted(s.levels[h], carry)
		s.levels[h] = nil
		carry = compactHalf(merged, s.flips[h])
		s.flips[h] = !s.flips[h]
		h++
	}
}

// mergeSorted merges two sorted slices into a fresh sorted slice.
func mergeSorted(a, b []float64) []float64 {
	out := make([]float64, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] <= b[j] {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	out = append(out, a[i:]...)
	return append(out, b[j:]...)
}

// compactHalf keeps every other element of a sorted slice, starting at
// index 1 when odd is set — the deterministic replacement for KLL's
// coin flip. Alternating the offset per height cancels the systematic
// rank bias a fixed offset would accumulate.
func compactHalf(m []float64, odd bool) []float64 {
	start := 0
	if odd {
		start = 1
	}
	out := make([]float64, 0, len(m)/2)
	for i := start; i < len(m); i += 2 {
		out = append(out, m[i])
	}
	return out
}

// Quantile returns the current estimate of the p-quantile (0 <= p <=
// 1): NaN before any observation or for p outside [0, 1], otherwise
// the weighted-rank read-off of Quantiles.
func (s *QuantileSketch) Quantile(p float64) float64 { return s.Quantiles(p)[0] }

// Quantiles returns the estimates of several quantiles from one
// read-off, in the order asked. Each follows the stats.Quantile
// interpolation convention over the expanded weighted multiset — item
// k occupies ranks [cum, cum+w); the p-quantile interpolates between
// the values at ranks floor(h) and floor(h)+1 for h = p*(n-1) — which
// makes the pre-compaction regime exactly the batch quantile. A p
// outside [0, 1], or any p before the first observation, reads NaN.
func (s *QuantileSketch) Quantiles(ps ...float64) []float64 {
	out := make([]float64, len(ps))
	ranks := make([]int64, 0, 2*len(ps))
	for _, p := range ps {
		if !s.answers(p) {
			continue
		}
		lo, frac := s.rankOf(p)
		ranks = append(ranks, lo)
		if frac != 0 && lo+1 < s.n {
			ranks = append(ranks, lo+1)
		}
	}
	slices.Sort(ranks)
	ranks = slices.Compact(ranks)
	vals := s.valuesAt(ranks)
	at := func(r int64) float64 {
		i, _ := slices.BinarySearch(ranks, r)
		return vals[i]
	}
	for i, p := range ps {
		if !s.answers(p) {
			out[i] = math.NaN()
			continue
		}
		lo, frac := s.rankOf(p)
		vLo := at(lo)
		if frac == 0 || lo+1 >= s.n {
			out[i] = vLo
			continue
		}
		out[i] = vLo*(1-frac) + at(lo+1)*frac
	}
	return out
}

// answers reports whether p has an estimate: the sketch holds data and
// p lies in [0, 1].
func (s *QuantileSketch) answers(p float64) bool {
	return s.n > 0 && !math.IsNaN(p) && p >= 0 && p <= 1
}

// rankOf splits h = p*(n-1) into its integer rank and fraction.
func (s *QuantileSketch) rankOf(p float64) (lo int64, frac float64) {
	h := p * float64(s.n-1)
	lo = int64(math.Floor(h))
	return lo, h - float64(lo)
}

// syncView brings the sorted view up to the whole level-0 buffer: only
// the items appended since the last read-off are sorted — in a copy,
// the buffer keeps arrival order for State — then merged into the view
// from the back, which stops once the last of them is placed: view
// items below the smallest new one never move.
func (s *QuantileSketch) syncView() {
	old := len(s.view)
	if old == len(s.buf) {
		return
	}
	fresh := slices.Clone(s.buf[old:])
	slices.Sort(fresh)
	s.view = s.view[:len(s.buf)]
	i, j := old-1, len(fresh)-1
	for w := len(s.view) - 1; j >= 0; w-- {
		if i >= 0 && cmp.Less(fresh[j], s.view[i]) {
			s.view[w] = s.view[i]
			i--
		} else {
			s.view[w] = fresh[j]
			j--
		}
	}
}

// valuesAt returns the values at the given ascending, distinct ranks
// of the expanded weighted multiset. The sorted view covers the
// level-0 buffer and every ladder level is already sorted, so one merge
// walk over the view and the levels, stopping at the last rank, reads
// every value off. Which of several equal values is walked first
// cannot change the value found at a rank.
func (s *QuantileSketch) valuesAt(ranks []int64) []float64 {
	out := make([]float64, len(ranks))
	// A run advances by its index, not by reslicing: the walk then
	// writes no pointers, so it pays no GC write barriers.
	type run struct {
		vals []float64
		w    int64
		next int
	}
	runs := make([]run, 0, 1+len(s.levels))
	if len(s.buf) > 0 {
		s.syncView()
		runs = append(runs, run{vals: s.view, w: 1})
	}
	for h, lvl := range s.levels {
		if lvl != nil {
			runs = append(runs, run{vals: lvl, w: int64(1) << uint(h)})
		}
	}
	var cum int64
	k := 0
	for k < len(ranks) {
		var best *run
		for i := range runs {
			r := &runs[i]
			if r.next < len(r.vals) && (best == nil || r.vals[r.next] < best.vals[best.next]) {
				best = r
			}
		}
		v := best.vals[best.next]
		best.next++
		cum += best.w
		for k < len(ranks) && ranks[k] < cum {
			out[k] = v
			k++
		}
	}
	return out
}

// QuantileSketchState is the checkpointable image of a QuantileSketch:
// the partial buffer in arrival order, every full level verbatim and
// the compaction parities — enough to make a restored sketch
// byte-identical to the live one.
type QuantileSketchState struct {
	Cap    int
	N      int64
	Buf    []float64
	Levels [][]float64
	Flips  []bool
}

// State captures the sketch for checkpointing. The image shares no
// storage with the sketch.
func (s *QuantileSketch) State() QuantileSketchState {
	var st QuantileSketchState
	s.stateInto(&st)
	for h, lvl := range st.Levels {
		st.Levels[h] = slices.Clone(lvl)
	}
	return st
}

// stateInto captures the sketch into an image the engine keeps to
// itself, reusing the capacity of dst's buffer, level list and
// parities. The levels are shared, not copied: place installs each
// level as a fresh slice and later replaces it, never writing into it,
// so a shared level keeps the values it had at the capture.
func (s *QuantileSketch) stateInto(dst *QuantileSketchState) {
	dst.Cap = s.cap
	dst.N = s.n
	dst.Buf = append(dst.Buf[:0], s.buf...)
	dst.Levels = append(dst.Levels[:0], s.levels...)
	dst.Flips = append(dst.Flips[:0], s.flips...)
}

// RestoreQuantileSketch rebuilds a sketch from a checkpointed state,
// verifying the structural invariants (level sizes, sortedness, and
// that the total weight accounts for exactly N observations) so a
// corrupted checkpoint is rejected instead of silently skewing
// quantiles.
func RestoreQuantileSketch(st QuantileSketchState) (*QuantileSketch, error) {
	s, err := NewQuantileSketch(st.Cap)
	if err != nil {
		return nil, err
	}
	if len(st.Buf) >= st.Cap {
		return nil, fmt.Errorf("%w: quantile sketch buffer holds %d of %d", ErrBadConfig, len(st.Buf), st.Cap)
	}
	if len(st.Flips) != len(st.Levels) {
		return nil, fmt.Errorf("%w: quantile sketch has %d levels, %d parities", ErrBadConfig, len(st.Levels), len(st.Flips))
	}
	weight := int64(len(st.Buf))
	for h, lvl := range st.Levels {
		if lvl == nil {
			continue
		}
		if len(lvl) != st.Cap {
			return nil, fmt.Errorf("%w: quantile sketch level %d holds %d of %d", ErrBadConfig, h, len(lvl), st.Cap)
		}
		if !sort.Float64sAreSorted(lvl) {
			return nil, fmt.Errorf("%w: quantile sketch level %d not sorted", ErrBadConfig, h)
		}
		weight += int64(st.Cap) << uint(h)
	}
	if weight != st.N {
		return nil, fmt.Errorf("%w: quantile sketch weight %d for n %d", ErrBadConfig, weight, st.N)
	}
	s.n = st.N
	s.buf = append(s.buf, st.Buf...)
	s.syncView()
	for _, lvl := range st.Levels {
		if lvl == nil {
			s.levels = append(s.levels, nil)
			continue
		}
		s.levels = append(s.levels, append([]float64(nil), lvl...))
	}
	s.flips = append([]bool(nil), st.Flips...)
	return s, nil
}
