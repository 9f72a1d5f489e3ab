package heavytail

import "fmt"

// ReservoirState is the checkpointable image of a Reservoir. RNG is
// the PCG generator's MarshalBinary state, so restoring is O(capacity)
// whatever the observation count, and the resumed sample path is
// bit-for-bit the uninterrupted one.
type ReservoirState struct {
	Cap   int
	Seen  int64
	RNG   []byte
	Items []float64
}

// State captures the reservoir for checkpointing.
func (r *Reservoir) State() ReservoirState {
	var st ReservoirState
	r.StateInto(&st)
	return st
}

// StateInto captures the reservoir into dst, reusing the capacity of
// dst.Items: a caller that captures repeatedly into the same image
// allocates only the generator state.
func (r *Reservoir) StateInto(dst *ReservoirState) {
	rng, err := r.pcg.MarshalBinary()
	if err != nil {
		panic(err) // PCG marshalling cannot fail
	}
	dst.Cap = r.cap
	dst.Seen = r.seen
	dst.RNG = rng
	dst.Items = append(dst.Items[:0], r.items...)
}

// RestoreReservoir rebuilds a reservoir from a checkpointed state,
// rejecting an item count that disagrees with the observation count
// and a generator state PCG does not accept.
func RestoreReservoir(st ReservoirState) (*Reservoir, error) {
	want := st.Seen
	if want > int64(st.Cap) {
		want = int64(st.Cap)
	}
	if st.Seen < 0 || int64(len(st.Items)) != want {
		return nil, fmt.Errorf("%w: reservoir state holds %d items for %d seen (cap %d)", ErrBadParam, len(st.Items), st.Seen, st.Cap)
	}
	r, err := NewReservoir(st.Cap, 0)
	if err != nil {
		return nil, err
	}
	if err := r.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("%w: reservoir RNG state: %v", ErrBadParam, err)
	}
	r.seen = st.Seen
	r.items = append(r.items, st.Items...)
	return r, nil
}

// OnlineHillState is the checkpointable image of an OnlineHill.
type OnlineHillState struct {
	Res          ReservoirState
	TailFraction float64
	RelTol       float64
	Dropped      int64
}

// State captures the estimator for checkpointing.
func (h *OnlineHill) State() OnlineHillState {
	var st OnlineHillState
	h.StateInto(&st)
	return st
}

// StateInto captures the estimator into dst, reusing its reservoir
// image's capacity (Reservoir.StateInto).
func (h *OnlineHill) StateInto(dst *OnlineHillState) {
	h.res.StateInto(&dst.Res)
	dst.TailFraction = h.tailFraction
	dst.RelTol = h.relTol
	dst.Dropped = h.dropped
}

// RestoreOnlineHill rebuilds an OnlineHill from a checkpointed state.
func RestoreOnlineHill(st OnlineHillState) (*OnlineHill, error) {
	h, err := NewOnlineHill(st.Res.Cap, 0, st.TailFraction, st.RelTol)
	if err != nil {
		return nil, err
	}
	res, err := RestoreReservoir(st.Res)
	if err != nil {
		return nil, err
	}
	h.res = res
	h.dropped = st.Dropped
	return h, nil
}
