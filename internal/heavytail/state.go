package heavytail

import "fmt"

// ReservoirState is the checkpointable image of a Reservoir. The RNG
// itself is not serialized: math/rand state has no stable encoding.
// Instead the state records the seed and the observation count, and
// RestoreReservoir replays the generator — one Int63n draw per
// post-capacity observation, exactly the sequence Observe consumed —
// to land the RNG on the identical internal state, so the resumed
// sample path is bit-for-bit the uninterrupted one.
type ReservoirState struct {
	Cap   int
	Seed  int64
	Seen  int64
	Items []float64
}

// State captures the reservoir for checkpointing.
func (r *Reservoir) State() ReservoirState {
	items := make([]float64, len(r.items))
	copy(items, r.items)
	return ReservoirState{Cap: r.cap, Seed: r.seed, Seen: r.seen, Items: items}
}

// RestoreReservoir rebuilds a reservoir from a checkpointed state,
// replaying the RNG to its exact position. Replay is O(seen) with a
// tiny constant (one Int63n per observation beyond capacity).
func RestoreReservoir(st ReservoirState) (*Reservoir, error) {
	r, err := NewReservoir(st.Cap, st.Seed)
	if err != nil {
		return nil, err
	}
	want := st.Seen
	if want > int64(st.Cap) {
		want = int64(st.Cap)
	}
	if st.Seen < 0 || int64(len(st.Items)) != want {
		return nil, fmt.Errorf("%w: reservoir state holds %d items for %d seen (cap %d)", ErrBadParam, len(st.Items), st.Seen, st.Cap)
	}
	for n := int64(st.Cap) + 1; n <= st.Seen; n++ {
		r.rng.Int63n(n)
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
	return OnlineHillState{
		Res:          h.res.State(),
		TailFraction: h.tailFraction,
		RelTol:       h.relTol,
		Dropped:      h.dropped,
	}
}

// RestoreOnlineHill rebuilds an OnlineHill from a checkpointed state.
func RestoreOnlineHill(st OnlineHillState) (*OnlineHill, error) {
	h, err := NewOnlineHill(st.Res.Cap, st.Res.Seed, st.TailFraction, st.RelTol)
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
