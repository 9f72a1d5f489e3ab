package stream_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"regexp"
	"strings"
	"testing"

	"fullweb/internal/stream"
)

// fuzzCheckpointConfig is the engine config every fuzzed checkpoint is
// resumed under: two shards and an arrival ring, so the decoder's
// per-shard and what-if restore paths are both reachable, with every
// sketch at its smallest size so seeds stay a few KiB and the fuzzer's
// minimizer stays fast.
func fuzzCheckpointConfig() stream.Config {
	cfg := stream.DefaultConfig()
	cfg.Shards = 2
	cfg.ArrivalWindow = 8
	cfg.AggVarLevels = 4
	cfg.ReservoirCap = 16
	cfg.QuantileCap = 16
	return cfg
}

// reseal replaces a checkpoint's header with one whose SHA-256 matches
// the payload, so a mutated payload gets past the checksum and reaches
// the JSON decoder and the restore validation behind it.
func reseal(data []byte) []byte {
	_, payload, _ := bytes.Cut(data, []byte("\n"))
	sum := sha256.Sum256(payload)
	header := fmt.Sprintf("fullweb-checkpoint v3 sha256=%s\n", hex.EncodeToString(sum[:]))
	return append([]byte(header), payload...)
}

// checkpointMutations are payload edits that keep the JSON well formed
// but put values where a restore must refuse or tolerate them.
var checkpointMutations = []struct{ re, repl string }{
	{`"lines":\d+`, `"lines":-1`},
	{`"n":\d+`, `"n":-5`},
	{`"n":\d+`, `"n":9223372036854775807`},
	{`"shards":\[`, `"shards":[{},`},
	{`"name":"[^"]*"`, `"name":"bogus"`},
	{`"cap":\d+`, `"cap":7`},
	{`"cap":16`, `"cap":1000000000000000000`},
	{`"seen":\d+`, `"seen":9000000000000000000`},
	{`"buf":\[[^\]]*\]`, `"buf":[3,1,2]`},
	{`"levels":\[\[`, `"levels":[[1],[`},
	{`"width":\d+`, `"width":0`},
	{`"last":\d+`, `"last":-1`},
	{`"requests":\[`, `"requests":[-1,`},
	{`"mean":-?\d+\.\d+(e[+-]?\d+)?`, `"mean":1e308`},
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

	// A real mid-trace checkpoint: the first few hundred fixture lines
	// leave full reservoirs, compacted quantile levels and a populated
	// ring.
	lines := strings.SplitAfter(string(fixtureBytes(f)), "\n")
	eng, err := stream.NewEngine(cfg)
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eng.ProcessCtx(context.Background(), strings.NewReader(strings.Join(lines[:400], "")), nil); err != nil {
		f.Fatal(err)
	}
	var real bytes.Buffer
	if err := eng.WriteCheckpoint(&real); err != nil {
		f.Fatal(err)
	}
	f.Add(real.Bytes(), false)
	f.Add(real.Bytes()[:real.Len()/2], true)
	for _, m := range checkpointMutations {
		mutated := regexp.MustCompile(m.re).ReplaceAll(real.Bytes(), []byte(m.repl))
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
