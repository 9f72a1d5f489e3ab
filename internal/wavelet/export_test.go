package wavelet

import "fmt"

// Levels returns the number of decomposition octaves.
func (d *Decomposition) Levels() int { return len(d.Details) }

// String returns the filter name.
func (f Filter) String() string {
	switch f {
	case Haar:
		return "haar"
	case Daubechies4:
		return "db4"
	default:
		return fmt.Sprintf("filter(%d)", int(f))
	}
}
