package stream_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"strings"
	"testing"

	"fullweb/internal/stream"
)

// fuzzCheckpointConfig is the engine config every fuzzed checkpoint is
// resumed under: an arrival ring, so the decoder's what-if restore
// path is reachable, with every sketch at its smallest size so seeds
// stay a few KiB and the fuzzer's minimizer stays fast.
func fuzzCheckpointConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.ArrivalWindow = 8
	cfg.AggVarLevels = 4
	cfg.ReservoirCap = 16
	cfg.QuantileCap = 16
	return cfg
}

// reseal replaces a checkpoint's header with one whose SHA-256 matches
// the payload, so a mutated payload gets past the checksum and reaches
// the binary decoder and the restore validation behind it.
func reseal(data []byte) []byte {
	_, payload, _ := bytes.Cut(data, []byte("\n"))
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("fullweb-checkpoint v5 sha256=%s\n", hex.EncodeToString(sum[:]))
	return append([]byte(header), payload...)
}

// checkpointMutations overwrite one payload byte, at a fraction of the
// payload's length, with a value that turns a length, count, tag or
// bool into an out-of-range one or cuts a varint short. They reach the
// decoder's own checks; stream.CheckpointEdits reach the restore's.
var checkpointMutations = []struct {
	at   float64
	with byte
}{
	{0.01, 0xff}, {0.05, 0x7f}, {0.1, 0x80}, {0.2, 0x02}, {0.3, 0xff},
	{0.4, 0x00}, {0.5, 0x7f}, {0.6, 0x80}, {0.7, 0xff}, {0.8, 0x03},
	{0.9, 0x7f}, {0.99, 0x80}, {0.15, 0x00}, {0.95, 0xff},
}

// midTraceCheckpoint is a real checkpoint taken under
// fuzzCheckpointConfig after the first few hundred fixture lines, which
// leave full reservoirs, compacted quantile levels and a populated
// ring.
func midTraceCheckpoint(tb testing.TB) []byte {
	tb.Helper()
	lines := strings.SplitAfter(string(fixtureBytes(tb)), "\n")
	eng, err := stream.NewEngine(fuzzCheckpointConfig())
	if err != nil {
		tb.Fatal(err)
	}
	if _, err := eng.ProcessCtx(context.Background(), strings.NewReader(strings.Join(lines[:400], "")), nil); err != nil {
		tb.Fatal(err)
	}
	var real bytes.Buffer
	if err := eng.WriteCheckpoint(&real); err != nil {
		tb.Fatal(err)
	}
	return real.Bytes()
}

// TestResumeRejectsCheckpointEdits: each semantic edit of a real
// checkpoint, behind a valid checksum, is refused by the restore check
// it aims at, or resumes when it names none.
func TestResumeRejectsCheckpointEdits(t *testing.T) {
	real := midTraceCheckpoint(t)
	for _, ed := range stream.CheckpointEdits {
		data, err := ed.Apply(real)
		if err != nil {
			t.Fatal(err)
		}
		cp, err := stream.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: edited checkpoint does not read: %v", ed.Name, err)
		}
		_, err = stream.ResumeEngine(fuzzCheckpointConfig(), cp)
		switch {
		case ed.Want == "" && err != nil:
			t.Fatalf("%s: resume failed: %v", ed.Name, err)
		case ed.Want != "" && (err == nil || !strings.Contains(err.Error(), ed.Want)):
			t.Fatalf("%s: resume error %v, want one containing %q", ed.Name, err, ed.Want)
		}
	}
}

// FuzzCheckpointDecode: arbitrary checkpoint bytes either fail in
// ReadCheckpoint or ResumeEngine, or restore an engine whose
// WriteCheckpoint bytes read back, resume and re-encode identically.
// No input may panic. With reseal set, the header is recomputed over
// the fuzzed payload so mutations are not all stopped by the checksum.
func FuzzCheckpointDecode(f *testing.F) {
	cfg := fuzzCheckpointConfig()
	fresh, err := stream.NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	var empty bytes.Buffer
	if err := fresh.WriteCheckpoint(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes(), false)

	real := midTraceCheckpoint(f)
	f.Add(real, false)
	f.Add(real[:len(real)/2], true)
	for _, ed := range stream.CheckpointEdits {
		data, err := ed.Apply(real)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, false)
	}
	header, _, _ := bytes.Cut(real, []byte("\n"))
	for _, m := range checkpointMutations {
		mutated := bytes.Clone(real)
		payload := mutated[len(header)+1:]
		payload[int(m.at*float64(len(payload)))] = m.with
		f.Add(reseal(mutated), false)
	}

	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		cp, err := stream.ReadCheckpoint(bytes.NewReader(data))
		if err != nil {
			return
		}
		eng, err := stream.ResumeEngine(cfg, cp)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := eng.WriteCheckpoint(&first); err != nil {
			t.Fatalf("restored engine cannot write its checkpoint: %v", err)
		}
		cp2, err := stream.ReadCheckpoint(bytes.NewReader(first.Bytes()))
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not read back: %v", err)
		}
		eng2, err := stream.ResumeEngine(cfg, cp2)
		if err != nil {
			t.Fatalf("re-encoded checkpoint does not resume: %v", err)
		}
		var second bytes.Buffer
		if err := eng2.WriteCheckpoint(&second); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("re-encoding is not stable:\n%s\n---\n%s", first.Bytes(), second.Bytes())
		}
	})
}
