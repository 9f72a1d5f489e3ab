// Package mergealiasdata exercises the mergealias rule: snapshot paths
// that hand out internal storage, plus the defensively-copied shapes
// the rule must accept.
package mergealiasdata

// --- the PR-6 Reservoir.Sample regression shape ---

type reservoir struct {
	items []float64
	k     int
}

// Sample hands out the backing array — the exact pre-fix Reservoir
// bug: callers sorting the sample corrupt the sketch.
func (r *reservoir) Sample() []float64 {
	return r.items // want `Sample returns r\.items, which shares storage with the receiver's internal state; callers can corrupt the sketch \(the Reservoir\.Sample bug class\) — return a copy`
}

// Samples is the fixed counterpart: a call (make) breaks the taint.
func (r *reservoir) Samples() []float64 {
	out := make([]float64, len(r.items))
	copy(out, r.items)
	return out
}

type reservoirState struct {
	Items []float64
	K     int
}

// State embeds internal storage into the checkpoint image.
func (r *reservoir) State() reservoirState {
	return reservoirState{Items: r.items, K: r.k} // want `snapshot image embeds r\.items, which shares storage with the receiver's internal state; callers can corrupt the sketch \(the Reservoir\.Sample bug class\) — copy it`
}

// Snapshot is the clean counterpart: append to nil copies.
func (r *reservoir) Snapshot() reservoirState {
	items := append([]float64(nil), r.items...)
	return reservoirState{Items: items, K: r.k}
}

// --- taint through a local ---

type sketch struct {
	buckets map[string]int64
}

// Snapshot launders the internal map through a local before returning
// it.
func (s *sketch) Snapshot() map[string]int64 {
	mine := s.buckets
	return mine // want `Snapshot returns mine, which shares storage with the receiver's internal state; callers can corrupt the sketch \(the Reservoir\.Sample bug class\) — return a copy`
}

// Samples is the clean counterpart: a fresh map, keys copied.
func (s *sketch) Samples() map[string]int64 {
	out := make(map[string]int64, len(s.buckets))
	for k, v := range s.buckets {
		out[k] = v
	}
	return out
}
