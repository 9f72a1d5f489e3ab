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

// spanCounter is a SpanSink counting span starts and ends by name.
type spanCounter struct {
	mu     sync.Mutex
	starts map[string]int
	ends   map[string]int
}

func newSpanCounter() *spanCounter {
	return &spanCounter{starts: map[string]int{}, ends: map[string]int{}}
}

func (c *spanCounter) SpanStart(d *obs.SpanData) {
	c.mu.Lock()
	c.starts[d.Name]++
	c.mu.Unlock()
}

func (c *spanCounter) SpanEnd(d *obs.SpanData) {
	c.mu.Lock()
	c.ends[d.Name]++
	c.mu.Unlock()
}

// counts returns the started and ended counts of one span name.
func (c *spanCounter) counts(name string) (started, ended int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.starts[name], c.ends[name]
}

// tracedCtx attaches a tracer feeding a fresh spanCounter.
func tracedCtx(ctx context.Context) (context.Context, *spanCounter) {
	c := newSpanCounter()
	return obs.WithTracer(ctx, obs.NewTracer(nil, c)), c
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
// must return that "creating checkpoint" error, and every write the
// writer started must have finished before ProcessCtx returned.
func TestCheckpointWriterCreateErrorJoined(t *testing.T) {
	path := filepath.Join(t.TempDir(), "missing", "stream.ckpt")
	eng, err := stream.NewEngine(writerCfg(path))
	if err != nil {
		t.Fatal(err)
	}
	ctx, spans := tracedCtx(context.Background())
	_, err = eng.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil)
	if err == nil || !strings.Contains(err.Error(), "creating checkpoint") {
		t.Fatalf("ProcessCtx error = %v, want the writer's creating-checkpoint error", err)
	}
	if !errors.Is(err, os.ErrNotExist) {
		t.Errorf("error %v does not wrap os.ErrNotExist", err)
	}
	started, ended := spans.counts("stream.checkpoint_write")
	if started == 0 || started != ended {
		t.Fatalf("checkpoint writes started %d, ended %d by return", started, ended)
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
// the last chunk that crossed a snapshot boundary; and the published
// telemetry counts exactly the committed checkpoints, never one that
// is not on disk yet.
func TestCheckpointWriterFinalImage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stream.ckpt")
	cfg := writerCfg(path)
	rt := &commitWitness{path: path}
	cfg.Telemetry = rt
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, spans := tracedCtx(context.Background())
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

	refCfg := writerCfg("")
	ref := &imageAt{lines: cp.SkipLines()}
	refCfg.Telemetry = ref
	refEng, err := stream.NewEngine(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	ref.eng = refEng
	if _, err := refEng.ProcessCtx(context.Background(), bytes.NewReader(fixtureBytes(t)), nil); err != nil {
		t.Fatal(err)
	}
	if ref.err != nil {
		t.Fatal(ref.err)
	}
	if !bytes.Equal(got, ref.image) {
		t.Fatalf("checkpoint on disk (%d bytes) differs from the reference image at line %d (%d bytes)",
			len(got), cp.SkipLines(), len(ref.image))
	}

	// One checkpoint per chunk that crossed a snapshot boundary: every
	// periodic snapshot but those sharing a chunk with an earlier one.
	captures, _ := spans.counts("stream.checkpoint")
	writes, ended := spans.counts("stream.checkpoint_write")
	if captures == 0 || writes != captures || ended != writes {
		t.Fatalf("captures %d, writes started %d, ended %d", captures, writes, ended)
	}
	if periodic := eng.Snapshots() - 1; int64(captures) > periodic {
		t.Errorf("%d checkpoints for %d periodic snapshots", captures, periodic)
	}
	if rt.rt.Checkpoints != int64(captures) || rt.rt.LastCheckpointLine != cp.SkipLines() {
		t.Errorf("telemetry reports %d checkpoints up to line %d, want %d up to %d",
			rt.rt.Checkpoints, rt.rt.LastCheckpointLine, captures, cp.SkipLines())
	}
}

// TestCheckpointFaultBeforeCapture: the stream.checkpoint fault site
// fires on the fold goroutine before the state is captured — the
// first hit leaves no capture, no write and no file; a later hit
// leaves exactly the earlier captures, all written.
func TestCheckpointFaultBeforeCapture(t *testing.T) {
	for _, hit := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "stream.ckpt")
		eng, err := stream.NewEngine(writerCfg(path))
		if err != nil {
			t.Fatal(err)
		}
		ctx, spans := tracedCtx(faultCtx(t, "stream.checkpoint=hit:"+strconv.Itoa(hit)))
		_, err = eng.ProcessCtx(ctx, bytes.NewReader(fixtureBytes(t)), nil)
		if !faultpoint.IsFault(err) {
			t.Fatalf("hit %d: ProcessCtx error = %v, want the injected fault", hit, err)
		}
		captures, _ := spans.counts("stream.checkpoint")
		writes, ended := spans.counts("stream.checkpoint_write")
		if captures != hit-1 || writes != hit-1 || ended != writes {
			t.Errorf("hit %d: captures %d, writes %d (%d ended), want %d", hit, captures, writes, ended, hit-1)
		}
		_, statErr := os.Stat(path)
		if exists := statErr == nil; exists != (hit > 1) {
			t.Errorf("hit %d: checkpoint file exists = %v", hit, exists)
		}
	}
}

// TestResumeFromPipelinedCheckpoints crashes the engine at every chunk
// fold in turn — each crash lands while the previous chunk's checkpoint
// write may still be in flight — resumes from whatever checkpoint the
// writer left, and requires every periodic and final block the resumed
// run prints to match the uninterrupted run from that point on.
func TestResumeFromPipelinedCheckpoints(t *testing.T) {
	text := fixtureBytes(t)
	base, err := stream.NewEngine(writerCfg(""))
	if err != nil {
		t.Fatal(err)
	}
	want, _ := renderAll(t, base, context.Background(), text)

	chunks := 0
	for i := 0; i < len(text); i++ {
		if text[i] == '\n' {
			chunks++
		}
	}
	chunks = (chunks + 63) / 64
	for hit := 2; hit <= chunks; hit++ {
		path := filepath.Join(t.TempDir(), "stream.ckpt")
		eng, err := stream.NewEngine(writerCfg(path))
		if err != nil {
			t.Fatal(err)
		}
		spec := "stream.fold=hit:" + strconv.Itoa(hit)
		if _, err := eng.ProcessCtx(faultCtx(t, spec), bytes.NewReader(text), nil); !faultpoint.IsFault(err) {
			t.Fatalf("%s: crashed run returned %v", spec, err)
		}
		cp, err := stream.LoadCheckpoint(path)
		if errors.Is(err, os.ErrNotExist) {
			continue // crashed before the first snapshot boundary
		}
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
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
