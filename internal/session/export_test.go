package session

import (
	"time"

	"fullweb/internal/weblog"
)

// Observe feeds one record by value, rejecting a timestamp before the
// stream clock; tests and fuzz targets feed the streamer through it.
// The engine calls ObserveClampedRef.
func (s *Streamer) Observe(r weblog.Record) ([]Session, error) { return s.observe(&r) }

// Clamped returns how many records ObserveClamped pulled forward to
// the stream clock because their timestamps ran backwards.
func (s *Streamer) Clamped() int64 { return s.clamped }

// LastTime returns the stream clock — the largest timestamp observed
// so far (zero before any record).
func (s *Streamer) LastTime() time.Time { return s.lastTime }
