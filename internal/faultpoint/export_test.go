package faultpoint

// Name returns the site's registered name.
func (s *Site) Name() string { return s.name }
