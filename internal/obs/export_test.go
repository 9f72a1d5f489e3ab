package obs

import (
	"strconv"
	"time"
)

// Enabled reports whether any observability output was requested.
func (c *CLIConfig) Enabled() bool {
	return c.Progress || c.TracePath != "" || c.MetricsPath != "" || c.PprofAddr != ""
}

// PprofAddr returns the bound address of the -pprof listener, or ""
// when pprof is not being served.
func (s *Session) PprofAddr() string {
	if s == nil || s.pprofLn == nil {
		return ""
	}
	return s.pprofLn.Addr().String()
}

// Duration returns End-Start of a finished span (zero while in
// flight or on an inert span).
func (s Span) Duration() time.Duration {
	if s.data == nil {
		return 0
	}
	return s.data.End.Sub(s.data.Start)
}

// SetFloat attaches a float attribute ('g' format, full precision).
func (s Span) SetFloat(key string, v float64) {
	if s.data == nil {
		return
	}
	s.data.Attrs = append(s.data.Attrs, Attr{Key: key, Value: strconv.FormatFloat(v, 'g', -1, 64)})
}
