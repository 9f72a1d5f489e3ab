package telemetry

// The rule bounds the boundary tests drive the rules across.
const (
	MaxQuarantineRate = maxQuarantineRate
	MaxWALLagBytes    = maxWALLagBytes
)
