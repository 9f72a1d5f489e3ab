package workload

import "fmt"

// String names the source.
func (s ArrivalSource) String() string {
	switch s {
	case FGNModulated:
		return "fgn"
	case OnOffAggregate:
		return "onoff"
	default:
		return fmt.Sprintf("source(%d)", int(s))
	}
}

// DefaultConfig returns a 1/10-scale, one-week configuration.
func DefaultConfig() Config {
	return Config{Scale: 0.1, Seed: 1}
}
