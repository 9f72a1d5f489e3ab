package heavytail

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
