package stream_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"fullweb/internal/faultpoint"
	"fullweb/internal/obs"
	"fullweb/internal/stream"
)

// spanCounter is a SpanSink counting span starts and ends by name and
// keeping, per name, the "lines" attribute of every ended span in end
// order.
type spanCounter struct {
	mu     sync.Mutex
	starts map[string]int
	ends   map[string]int
	lines  map[string][]int64
}

func newSpanCounter() *spanCounter {
	return &spanCounter{starts: map[string]int{}, ends: map[string]int{}, lines: map[string][]int64{}}
}

func (c *spanCounter) SpanStart(d *obs.SpanData) {
	c.mu.Lock()
	c.starts[d.Name]++
	c.mu.Unlock()
}

func (c *spanCounter) SpanEnd(d *obs.SpanData) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ends[d.Name]++
	for _, a := range d.Attrs {
		if a.Key == "lines" {
			n, err := strconv.ParseInt(a.Value, 10, 64)
			if err != nil {
				panic(err)
			}
			c.lines[d.Name] = append(c.lines[d.Name], n)
		}
	}
}

// counts returns the started and ended counts of one span name.
func (c *spanCounter) counts(name string) (started, ended int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.starts[name], c.ends[name]
}

// linesOf returns the "lines" attributes of the ended spans of one
// name, in end order.
func (c *spanCounter) linesOf(name string) []int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]int64(nil), c.lines[name]...)
}

// tracedCtx attaches a tracer feeding a fresh spanCounter and a fresh
// metrics registry.
func tracedCtx(ctx context.Context) (context.Context, *spanCounter, *obs.Registry) {
	c := newSpanCounter()
	reg := obs.NewRegistry()
	return obs.WithMetrics(obs.WithTracer(ctx, obs.NewTracer(nil, c)), reg), c, reg
}

// writerTally is what one run's spans and counters say about its
// checkpoint writer.
type writerTally struct {
	captures, writes, ended int
	superseded, commits     int64
}

func tallyWriter(spans *spanCounter, reg *obs.Registry) writerTally {
	var w writerTally
	w.captures, _ = spans.counts("stream.checkpoint")
	w.writes, w.ended = spans.counts("stream.checkpoint_write")
	w.superseded = reg.Counter("stream.checkpoints_superseded").Value()
	w.commits = reg.Counter("stream.checkpoints").Value()
	return w
}

// check enforces the coalescing writer's accounting: every capture is
// either written or superseded by a newer one, every write started has
// ended, and every write committed.
func (w writerTally) check() error {
	if int64(w.writes)+w.superseded != int64(w.captures) || w.ended != w.writes || w.commits != int64(w.writes) {
		return fmt.Errorf("captures %d, writes started %d (%d ended, %d committed), superseded %d",
			w.captures, w.writes, w.ended, w.commits, w.superseded)
	}
	return nil
}

// referenceImage is WriteCheckpoint of an engine without a checkpoint
// path, run over the fixture in the writer geometry and stopped after
// the chunk that ends at raw line position lines.
func referenceImage(t *testing.T, lines int64) []byte {
	t.Helper()
	cfg := writerCfg("")
	ref := &imageAt{lines: lines}
	cfg.Telemetry = ref
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.eng = eng
	if _, err := eng.ProcessCtx(context.Background(), bytes.NewReader(fixtureBytes(t)), nil); err != nil {
		t.Fatal(err)
	}
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if ref.image == nil {
		t.Fatalf("no chunk ends at line %d", lines)
	}
	return ref.image
}

// writerCfg checkpoints hourly over the two-day fixture in 64-line
// chunks: nearly every chunk crosses a snapshot boundary, so each
// capture is handed over while the previous write may still be in
// flight.
func writerCfg(path string) stream.Config {
	cfg := stream.DefaultConfig()
	cfg.SnapshotEvery = time.Hour
	cfg.Chunk.Lines = 64
	cfg.Workers = 2
	cfg.CheckpointPath = path
	return cfg
}

// commitWitness keeps the most recent runtime publication and checks,
// at every one, that the telemetry never runs ahead of the disk: once
// it reports a checkpoint at line L, the file holds one at L or later.
type commitWitness struct {
	path string
	rt   stream.RuntimeStats
	err  error
}

func (c *commitWitness) PublishRuntime(rt stream.RuntimeStats) {
	c.rt = rt
	if rt.Checkpoints == 0 || c.err != nil {
		return
	}
	cp, err := stream.LoadCheckpoint(c.path)
	if err != nil {
		c.err = fmt.Errorf("telemetry reports %d checkpoints, disk: %w", rt.Checkpoints, err)
	} else if cp.SkipLines() < rt.LastCheckpointLine {
		c.err = fmt.Errorf("telemetry reports a checkpoint at line %d, disk holds line %d", rt.LastCheckpointLine, cp.SkipLines())
	}
}
func (c *commitWitness) PublishSnapshot(*stream.Snapshot) {}

// imageAt captures WriteCheckpoint of the engine it observes after the
// chunk that ends at raw line position lines. It runs on the fold
// goroutine, between the chunk's checkpoint cadence and the next
// chunk, so it sees exactly the state a capture there would.
type imageAt struct {
	eng   *stream.Engine
	lines int64
	image []byte
	err   error
}

func (c *imageAt) PublishRuntime(rt stream.RuntimeStats) {
	if rt.Lines != c.lines || c.image != nil {
		return
	}
	var buf bytes.Buffer
	c.err = c.eng.WriteCheckpoint(&buf)
	c.image = buf.Bytes()
}
func (c *imageAt) PublishSnapshot(*stream.Snapshot) {}

// TestCheckpointWriterCreateErrorJoined: a checkpoint path in a missing
// directory fails the first write on the writer goroutine; ProcessCtx
// must return that "creating checkpoint" error, the failure must stop
// the writer (the pending capture is dropped, so the first write is
// the only one), and every write the writer started must have finished
// before ProcessCtx returned.
func TestCheckpointWriterCreateErrorJoined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "stream.ckpt")
	eng, err := stream.NewEngine(writerCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	ctx, spans, _ := tracedCtx(context.Background())
	_, err = eng.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil)
	if err == nil || !strings.Contains(err.Error(), "creating checkpoint") {
		t.Fatalf("ProcessCtx error = %v, want the writer's creating-checkpoint error", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("error %v does not wrap os.ErrNotExist", err)
	}
	started, ended := spans.counts("stream.checkpoint_write")
	if started != 1 || started != ended {
		t.Fatalf("checkpoint writes started %d, ended %d by return; want the one failed write", started, ended)
	}
}

// TestCheckpointWriterCommitErrorSurfaces: a failure at the last step
// of a write — the rename, here onto a directory — surfaces too, and
// leaves no temp file behind.
func TestCheckpointWriterCommitErrorSurfaces(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, "occupied"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	eng, err := stream.NewEngine(writerCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	_, err = eng.ProcessCtx(context.Background(), bytes.NewReader(fixtureBytes(t)), nil)
	if err == nil || !strings.Contains(err.Error(), "committing checkpoint") {
		t.Fatalf("ProcessCtx error = %v, want the writer's committing-checkpoint error", err)
	}
	if _, err := os.Stat(path + ".tmp"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

// TestCheckpointWriterFinalImage: once ProcessCtx returns, the file on
// disk is byte for byte what WriteCheckpoint gives for a reference
// engine (no checkpoint path, same input and geometry) stopped after
// the last chunk that crossed a snapshot boundary — the last capture.
// Captures taken while a write is in flight coalesce, so not every
// capture is written: each is written or superseded, exactly once.
// The published telemetry counts exactly the committed writes, never
// one that is not on disk yet.
func TestCheckpointWriterFinalImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	cfg := writerCfg(path)
	rt := &commitWitness{path: path}
	cfg.Telemetry = rt
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, spans, reg := tracedCtx(context.Background())
	if _, err := eng.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil); err != nil {
		t.Fatal(err)
	}
	if rt.err != nil {
		t.Fatal(rt.err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := stream.ReadCheckpoint(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	captured := spans.linesOf("stream.checkpoint")
	if len(captured) == 0 || cp.SkipLines() != captured[len(captured)-1] {
		t.Fatalf("checkpoint on disk at line %d, captures at %v", cp.SkipLines(), captured)
	}
	if ref := referenceImage(t, cp.SkipLines()); !bytes.Equal(got, ref) {
		t.Fatalf("checkpoint on disk (%d bytes) differs from the reference image at line %d (%d bytes)",
			len(got), cp.SkipLines(), len(ref))
	}

	// One capture per chunk that crossed a snapshot boundary: every
	// periodic snapshot but those sharing a chunk with an earlier one.
	w := tallyWriter(spans, reg)
	if err := w.check(); err != nil {
		t.Fatal(err)
	}
	if periodic := eng.Snapshots() - 1; int64(w.captures) > periodic {
		t.Errorf("%d checkpoints for %d periodic snapshots", w.captures, periodic)
	}
	if rt.rt.Checkpoints != int64(w.writes) || rt.rt.LastCheckpointLine != cp.SkipLines() {
		t.Errorf("telemetry reports %d checkpoints up to line %d, want %d up to %d",
			rt.rt.Checkpoints, rt.rt.LastCheckpointLine, w.writes, cp.SkipLines())
	}
}

// TestCheckpointFaultBeforeCapture: the stream.checkpoint fault site
// fires on the fold goroutine before the state is captured — the
// first hit leaves no capture, no write and no file; a later hit
// leaves exactly the earlier captures, each written or superseded, and
// the file holds the last of them.
func TestCheckpointFaultBeforeCapture(t *testing.T) {
	for _, hit := range []int{1, 2, 4, 9} {
		path := filepath.Join(t.TempDir(), "stream.ckpt")
		eng, err := stream.NewEngine(writerCfg(path))
		if err != nil {
			t.Fatal(err)
		}
		ctx, spans, reg := tracedCtx(faultCtx(t, "stream.checkpoint=hit:"+strconv.Itoa(hit)))
		_, err = eng.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil)
		if !faultpoint.IsFault(err) {
			t.Fatalf("hit %d: ProcessCtx error = %v, want the injected fault", hit, err)
		}
		w := tallyWriter(spans, reg)
		if w.captures != hit-1 {
			t.Errorf("hit %d: %d captures, want %d", hit, w.captures, hit-1)
		}
		if err := w.check(); err != nil {
			t.Errorf("hit %d: %v", hit, err)
		}
		got, statErr := os.ReadFile(path)
		if exists := statErr == nil; exists != (hit > 1) {
			t.Errorf("hit %d: checkpoint file exists = %v", hit, exists)
		}
		if hit == 1 || statErr != nil {
			continue
		}
		captured := spans.linesOf("stream.checkpoint")
		if ref := referenceImage(t, captured[hit-2]); !bytes.Equal(got, ref) {
			t.Errorf("hit %d: checkpoint on disk differs from the image of capture %d (line %d)", hit, hit-1, captured[hit-2])
		}
	}
}

// TestResumeFromPipelinedCheckpoints is the crash matrix over the
// engine's fault sites: it crashes at every hit of stream.fold,
// stream.checkpoint and stream.snapshot in turn — each crash lands
// while a checkpoint write may be in flight and a newer capture
// pending — and requires the file to hold the last capture before the
// crash. It resumes from that file and requires every periodic and
// final block the resumed run prints to match the uninterrupted run
// from that point on.
func TestResumeFromPipelinedCheckpoints(t *testing.T) {
	text := fixtureBytes(t)
	base, err := stream.NewEngine(writerCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := renderAll(t, base, context.Background(), text)

	// The hit counts of an uninterrupted checkpointing run.
	full, err := stream.NewEngine(writerCfg(filepath.Join(t.TempDir(), "stream.ckpt")))
	if err != nil {
		t.Fatal(err)
	}
	ctx, spans, _ := tracedCtx(context.Background())
	if _, err := full.ProcessCtx(ctx, bytes.NewReader(text), nil); err != nil {
		t.Fatal(err)
	}
	folds, _ := spans.counts("stream.fold_chunk")
	captures, _ := spans.counts("stream.checkpoint")
	hits := map[string]int{
		"stream.fold":       folds,
		"stream.checkpoint": captures,
		"stream.snapshot":   int(full.Snapshots() - 1),
	}
	for _, site := range []string{"stream.fold", "stream.checkpoint", "stream.snapshot"} {
		if hits[site] < 2 {
			t.Fatalf("%s: only %d hits in the uninterrupted run", site, hits[site])
		}
		for hit := 1; hit <= hits[site]; hit++ {
			spec := site + "=hit:" + strconv.Itoa(hit)
			path := filepath.Join(t.TempDir(), "stream.ckpt")
			eng, err := stream.NewEngine(writerCfg(path))
			if err != nil {
				t.Fatal(err)
			}
			ctx, spans, _ := tracedCtx(faultCtx(t, spec))
			if _, err := eng.ProcessCtx(ctx, bytes.NewReader(text), nil); !faultpoint.IsFault(err) {
				t.Fatalf("%s: crashed run returned %v", spec, err)
			}
			captured := spans.linesOf("stream.checkpoint")
			cp, err := stream.LoadCheckpoint(path)
			if errors.Is(err, os.ErrNotExist) && len(captured) == 0 {
				continue // crashed before the first capture
			}
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			if last := captured[len(captured)-1]; cp.SkipLines() != last {
				t.Fatalf("%s: checkpoint on disk at line %d, last capture at line %d", spec, cp.SkipLines(), last)
			}
			resumed, err := stream.ResumeEngine(writerCfg(path), cp)
			if err != nil {
				t.Fatalf("%s: %v", spec, err)
			}
			got, _ := renderAll(t, resumed, context.Background(), text)
			if got == "" || !strings.HasSuffix(want, got) {
				t.Fatalf("%s: resumed from line %d, output is not the uninterrupted run's tail", spec, cp.SkipLines())
			}
		}
	}
}
