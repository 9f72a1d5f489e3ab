package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the boundary. Spans of one operation share RunID; Parent is
// the ID of the span that caused it (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	RunID  int64  `json:"run_id"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory and writes them as JSONL at the end. A
// nil *tracer records nothing, so untraced runs pay one nil check.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	next  int64
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// record adds a finished span and returns its ID. start and end are
// wall instants; they are stored relative to the tracer's epoch.
func (t *tracer) record(name string, parent, runID int64, start, end time.Time) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	t.spans = append(t.spans, span{
		ID: t.next, Parent: parent, RunID: runID, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
	return t.next
}

// reserve allocates a span ID before the span ends, so children can
// name their parent while it is still open.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// finish records a span under an ID from reserve.
func (t *tracer) finish(id int64, name string, parent, runID int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, RunID: runID, Name: name,
		Start: int64(start.Sub(t.epoch)), End: int64(end.Sub(t.epoch)),
	})
}

// timed runs fn inside a root span of its own run and returns fn's
// wall duration.
func (t *tracer) timed(name string, fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	end := time.Now()
	id := t.reserve()
	t.finish(id, name, 0, id, start, end)
	return end.Sub(start), err
}

// writeJSONL writes every span, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("creating span file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("writing span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("writing span file: %w", err)
	}
	return f.Close()
}
