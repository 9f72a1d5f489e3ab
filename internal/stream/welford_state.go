package stream

// WelfordState is the checkpointable image of a Welford accumulator.
type WelfordState struct {
	N    int64
	Mean float64
	M2   float64
	Min  float64
	Max  float64
}

// State captures the accumulator for checkpointing.
func (w *Welford) State() WelfordState {
	return WelfordState{N: w.n, Mean: w.mean, M2: w.m2, Min: w.minV, Max: w.maxV}
}

// RestoreWelford rebuilds an accumulator from a checkpointed state. An
// empty state (N == 0) normalizes to the zero accumulator regardless of
// what its min/max/mean fields carry: before the first observation
// those fields are meaningless, and restoring them verbatim would make
// a restored-then-fed sketch diverge from a fresh one — the first
// Observe must seed min/max from the observation. This keeps a resumed
// engine byte-identical to an uninterrupted run even when a
// characteristic had no sessions at checkpoint time.
func RestoreWelford(st WelfordState) Welford {
	if st.N <= 0 {
		return Welford{}
	}
	return Welford{n: st.N, mean: st.Mean, m2: st.M2, minV: st.Min, maxV: st.Max}
}
