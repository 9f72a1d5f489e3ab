package stream

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"fullweb/internal/obs"
)

// holdGate keeps the checkpoint writer's first write from starting
// until the fold has published the last chunk, recording what the
// fold had done by then, and keeps WriteCheckpoint images of the
// engine at every chunk boundary.
type holdGate struct {
	eng     *Engine
	lines   int64 // the input's line count
	release chan struct{}
	// At the last chunk: chunks folded and checkpoints committed.
	folded, committed int64
	images            map[int64][]byte
	err               error
}

func (g *holdGate) PublishRuntime(rt RuntimeStats) {
	if _, seen := g.images[rt.Lines]; seen {
		return // the end-of-stream publication, after the last chunk's
	}
	var buf bytes.Buffer
	if err := g.eng.WriteCheckpoint(&buf); err != nil && g.err == nil {
		g.err = err
	}
	g.images[rt.Lines] = buf.Bytes()
	if rt.Lines == g.lines {
		g.folded, g.committed = rt.ChunksFolded, rt.Checkpoints
		close(g.release)
	}
}
func (g *holdGate) PublishSnapshot(*Snapshot) {}

// heldRun folds the fixture in 64-line chunks with hourly checkpoints
// to path, the writer's first write held until every chunk has folded.
// It returns the engine's gate, the writer, the metrics registry and
// the number of writes started.
func heldRun(t *testing.T, path string) (*holdGate, *checkpointWriter, *obs.Registry, int, error) {
	t.Helper()
	text, err := os.ReadFile("testdata/fixture.log")
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.SnapshotEvery = time.Hour
	cfg.Chunk.Lines = heldChunkLines
	cfg.Workers = 2
	cfg.CheckpointPath = path
	gate := &holdGate{lines: int64(bytes.Count(text, []byte("\n"))), release: make(chan struct{}), images: map[int64][]byte{}}
	cfg.Telemetry = gate
	eng, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gate.eng = eng
	reg := obs.NewRegistry()
	writes := &writeCounter{}
	ctx := obs.WithTracer(obs.WithMetrics(context.Background(), reg), obs.NewTracer(nil, writes))
	w := newCheckpointWriter(path)
	w.hold = gate.release
	_, err = eng.process(ctx, bytes.NewReader(text), nil, w)
	if gate.err != nil {
		t.Fatal(gate.err)
	}
	if want := (gate.lines + heldChunkLines - 1) / heldChunkLines; gate.folded != want || gate.committed != 0 {
		t.Fatalf("with the first write held, %d of %d chunks folded and %d checkpoints committed", gate.folded, want, gate.committed)
	}
	return gate, w, reg, writes.count(), err
}

const heldChunkLines = 64

// writeCounter is a SpanSink counting started checkpoint writes.
type writeCounter struct {
	mu sync.Mutex
	n  int
}

func (c *writeCounter) SpanStart(d *obs.SpanData) {
	if d.Name == "stream.checkpoint_write" {
		c.mu.Lock()
		c.n++
		c.mu.Unlock()
	}
}
func (c *writeCounter) SpanEnd(*obs.SpanData) {}

func (c *writeCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// TestCheckpointWriterHeldFoldsOn holds the writer's first write until
// every chunk has folded. The fold must not wait for it: every chunk
// folds with nothing committed, each capture after the first replaces
// the pending one, and once released the writer writes the first
// capture and then the last, which the file holds.
func TestCheckpointWriterHeldFoldsOn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	gate, w, reg, writes, err := heldRun(t, path)
	if err != nil {
		t.Fatal(err)
	}
	commits := reg.Counter("stream.checkpoints").Value()
	superseded := reg.Counter("stream.checkpoints_superseded").Value()
	if writes != 2 || commits != 2 || superseded < 1 {
		t.Fatalf("%d writes started, %d committed, %d captures superseded; want the first and the last written, at least one superseded",
			writes, commits, superseded)
	}
	if len(w.free) != 2 || w.free[0] == w.free[1] || w.pending != nil {
		t.Fatalf("after the join the writer holds %d free images and a pending one: %v", len(w.free), w.pending != nil)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := ReadCheckpoint(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	// The last capture is the one the writer handed back last.
	if last := w.free[1].Lines; cp.SkipLines() != last {
		t.Fatalf("checkpoint on disk at line %d, last capture at line %d", cp.SkipLines(), last)
	}
	if !bytes.Equal(got, gate.images[cp.SkipLines()]) {
		t.Fatalf("checkpoint on disk differs from the engine's image at line %d", cp.SkipLines())
	}
}

// TestCheckpointWriterHeldFailureDropsPending: when the held first
// write fails (its directory is missing), the join returns that error
// and drops the pending capture instead of writing it, as a writer
// that wrote every capture in turn would have stopped at the failure.
func TestCheckpointWriterHeldFailureDropsPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "stream.ckpt")
	_, w, reg, writes, err := heldRun(t, path)
	if err == nil || !strings.Contains(err.Error(), "creating checkpoint") {
		t.Fatalf("process error = %v, want the held write's creating-checkpoint error", err)
	}
	if superseded := reg.Counter("stream.checkpoints_superseded").Value(); writes != 1 || superseded < 1 {
		t.Fatalf("%d writes started, %d captures superseded; want only the failed write, at least one superseded", writes, superseded)
	}
	if len(w.free) != 2 || w.pending != nil {
		t.Fatalf("after the join the writer holds %d free images and a pending one: %v", len(w.free), w.pending != nil)
	}
}

// imageWatch checks the checkpoint writer's images after every chunk
// fold: at most two exist (in flight, pending and free together), and
// a writer left idle with nothing pending holds none. It also counts
// the distinct images the run used.
type imageWatch struct {
	w      *checkpointWriter
	folded int64
	seen   map[*engineState]bool
	err    error
}

func (c *imageWatch) PublishRuntime(rt RuntimeStats) {
	if rt.ChunksFolded == c.folded {
		return // the end-of-stream publication, after the join
	}
	c.folded = rt.ChunksFolded
	w := c.w
	live := append([]*engineState(nil), w.free...)
	if w.pending != nil {
		live = append(live, w.pending)
	}
	for _, st := range live {
		c.seen[st] = true
	}
	if w.busy {
		live = append(live, nil)
	}
	switch {
	case c.err != nil:
	case len(live) > 2:
		c.err = fmt.Errorf("after chunk %d: %d images live", rt.ChunksFolded, len(live))
	case !w.busy && w.pending == nil && len(w.free) > 0:
		c.err = fmt.Errorf("after chunk %d: the writer is idle but holds %d free images", rt.ChunksFolded, len(w.free))
	}
}
func (c *imageWatch) PublishSnapshot(*Snapshot) {}

// TestCheckpointWriterImages: captures at consecutive chunks (hourly
// snapshots in 64-line chunks) recycle the writer's images, so the run
// uses far fewer images than it takes captures; at 6-hour snapshots
// captures are sparse and the images are released between them. At
// most two images are live at any chunk boundary in both.
func TestCheckpointWriterImages(t *testing.T) {
	text, err := os.ReadFile("testdata/fixture.log")
	if err != nil {
		t.Fatal(err)
	}
	for _, every := range []time.Duration{time.Hour, 6 * time.Hour} {
		path := filepath.Join(t.TempDir(), "stream.ckpt")
		cfg := DefaultConfig()
		cfg.SnapshotEvery = every
		cfg.Chunk.Lines = heldChunkLines
		cfg.CheckpointPath = path
		w := newCheckpointWriter(path)
		watch := &imageWatch{w: w, seen: map[*engineState]bool{}}
		cfg.Telemetry = watch
		eng, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		reg := obs.NewRegistry()
		if _, err := eng.process(obs.WithMetrics(context.Background(), reg), bytes.NewReader(text), nil, w); err != nil {
			t.Fatal(err)
		}
		if watch.err != nil {
			t.Fatalf("snapshots every %v: %v", every, watch.err)
		}
		captures := reg.Counter("stream.checkpoints").Value() + reg.Counter("stream.checkpoints_superseded").Value()
		t.Logf("snapshots every %v: %d captures, %d images", every, captures, len(watch.seen))
		if every == time.Hour && int64(len(watch.seen)) >= captures/2 {
			t.Errorf("snapshots every %v: %d captures used %d images; consecutive captures should recycle them", every, captures, len(watch.seen))
		}
	}
}
