// Hardened-ingestion support: positioned read errors, oversized-field
// rejection, bounded retry-with-backoff for transient opens, and the
// package's fault-injection sites. Real week-long traces arrive with
// truncated gzip rotations, mid-record cuts and transiently missing
// segments; these helpers turn each of those into a measured,
// deterministic outcome instead of a silent loss or a panic
// (DESIGN.md §11).
package weblog

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
)

// The package's registered fault-injection sites (see
// internal/faultpoint and the faultguard lint rule):
//
//	weblog.open   — transient file-open failure (exercises OpenRetry)
//	weblog.read   — mid-stream I/O fault before a chunk is scanned
//	weblog.parse  — crash inside a concurrent chunk parse
var (
	fpOpen  = faultpoint.NewSite("weblog.open")
	fpRead  = faultpoint.NewSite("weblog.read")
	fpParse = faultpoint.NewSite("weblog.parse")
)

// ErrOversized marks a record whose host or path field exceeds the
// configured bound — framing survived, but the content is outside the
// envelope real CLF traffic occupies, so hardened ingestion rejects
// (and quarantines) the line rather than feeding it to the analyses.
var ErrOversized = errors.New("weblog: oversized field")

// Oversized reports whether a parsed record breaches the per-field
// byte bound (0 disables the check), returning a descriptive error
// wrapping ErrOversized, or nil.
func Oversized(r *Record, maxFieldBytes int) error {
	if maxFieldBytes <= 0 {
		return nil
	}
	if len(r.Host) > maxFieldBytes {
		return fmt.Errorf("%w: host is %d bytes (max %d)", ErrOversized, len(r.Host), maxFieldBytes)
	}
	if len(r.Path) > maxFieldBytes {
		return fmt.Errorf("%w: path is %d bytes (max %d)", ErrOversized, len(r.Path), maxFieldBytes)
	}
	return nil
}

// ReadError is an I/O failure positioned in the input: Line is the
// last input line that was read successfully before the stream broke
// (truncated gzip member, disk fault, injected weblog.read fault).
// Budgeted ingestion treats it as a measurable end-of-input
// (DegradedInput); strict mode surfaces it as-is.
type ReadError struct {
	Line int
	Err  error
}

// Error implements the error interface.
func (e *ReadError) Error() string {
	return fmt.Sprintf("weblog: reading after line %d: %v", e.Line, e.Err)
}

// Unwrap exposes the underlying cause.
func (e *ReadError) Unwrap() error { return e.Err }

// RetryPolicy bounds the retry-with-backoff loop around transient
// file-open faults on rotated segments. Sleeping goes through the
// injected Sleep so tests (and the determinism contract) never touch
// the wall clock; a nil Sleep skips delays entirely.
type RetryPolicy struct {
	// Attempts is the total number of tries (min 1).
	Attempts int
	// Backoff is the delay before the second attempt; it doubles for
	// each further attempt.
	Backoff time.Duration
	// Sleep performs the delay; cmd/ injects time.Sleep, tests inject
	// a recorder. Nil skips delays.
	Sleep func(time.Duration)
}

// DefaultRetryPolicy is the CLI's open-retry policy: three attempts,
// 100ms then 200ms apart.
func DefaultRetryPolicy(sleep func(time.Duration)) RetryPolicy {
	return RetryPolicy{Attempts: 3, Backoff: 100 * time.Millisecond, Sleep: sleep}
}

// OpenRetry opens a log segment, retrying transient failures under
// the policy. Each attempt first consults the weblog.open fault site,
// so tests can force exactly N transient failures. Retries are
// counted on the ingest.open_retries obs counter; the last error is
// returned when every attempt fails.
func OpenRetry(ctx context.Context, path string, policy RetryPolicy) (*os.File, error) {
	attempts := policy.Attempts
	if attempts < 1 {
		attempts = 1
	}
	reg := obs.MetricsFrom(ctx)
	delay := policy.Backoff
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		if attempt > 1 {
			reg.Counter("ingest.open_retries").Inc()
			if policy.Sleep != nil && delay > 0 {
				policy.Sleep(delay)
			}
			delay *= 2
		}
		if err := fpOpen.Check(ctx); err != nil {
			lastErr = err
			continue
		}
		f, err := os.Open(path)
		if err == nil {
			return f, nil
		}
		lastErr = err
	}
	return nil, fmt.Errorf("weblog: opening %s after %d attempts: %w", path, attempts, lastErr)
}

// CountingWriter wraps a writer and tracks bytes written — how the
// quarantine sink's offset enters a checkpoint, so resume can
// truncate the file back to the exact recovery point.
type CountingWriter struct {
	W io.Writer
	N int64
}

// Write implements io.Writer.
func (c *CountingWriter) Write(p []byte) (int, error) {
	n, err := c.W.Write(p)
	c.N += int64(n)
	return n, err
}
