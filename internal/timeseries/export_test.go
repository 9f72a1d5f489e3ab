package timeseries

import "fmt"

// String returns the test variant name.
func (t KPSSType) String() string {
	switch t {
	case KPSSLevel:
		return "level"
	case KPSSTrend:
		return "trend"
	default:
		return fmt.Sprintf("kpss(%d)", int(t))
	}
}

// String returns the method name.
func (m SeasonalMethod) String() string {
	switch m {
	case SeasonalDifferencing:
		return "differencing"
	case SeasonalMeans:
		return "seasonal-means"
	default:
		return fmt.Sprintf("seasonal(%d)", int(m))
	}
}
