package stream

// PeakActiveSessions returns the sessionizer's live-state high-water
// mark — the quantity that bounds the engine's memory.
func (e *Engine) PeakActiveSessions() int { return e.streamer.PeakActiveSessions() }

// N returns the observation count.
func (s *QuantileSketch) N() int64 { return s.n }

// Quantile returns the current estimate of the p-quantile (0 <= p <=
// 1): NaN before any observation or for p outside [0, 1], otherwise
// the weighted-rank read-off of Quantiles.
func (s *QuantileSketch) Quantile(p float64) float64 { return s.Quantiles(p)[0] }
