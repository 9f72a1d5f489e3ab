// Command bench is fullweb's benchmark: it runs one workload against
// the built fullweb binary and prints one JSON result line.
//
//	bench/run.sh --workload archive --seed 1 --seconds 10 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// runs the workload untraced and then traced, times each module's
// public functions in-process (the layer ladder), writes the spans as
// JSONL and reports the per-layer metrics and the tracing overhead.
// See bench/README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

var workloads = map[string]func(*run) (*result, error){
	"archive":      archive,
	"live-ingest":  liveIngest,
	"live-query":   liveQuery,
	"characterize": characterize,
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	name := flag.String("workload", "", "workload: archive, live-ingest, live-query or characterize")
	seed := flag.Int64("seed", 1, "workload seed: the same seed gives the same traces and query mix")
	seconds := flag.Int("seconds", 10, "measured seconds a run")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics")
	bin := flag.String("bin", "", "fullweb binary under test")
	build := flag.String("build", ".bench_build", "directory for the cache, temp files and spans")
	flag.Parse()
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *bin == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		return fmt.Errorf("need -bin, -seconds >= 1 and -trace 0 or 1")
	}
	// The generator and its two connections use at most two CPUs.
	if runtime.NumCPU() > 2 {
		runtime.GOMAXPROCS(2)
	}
	cache, err := openSeedCache(filepath.Join(*build, "cache"), *bin, *seed)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Join(*build, "tmp"), 0o755); err != nil {
		return err
	}
	tmp, err := os.MkdirTemp(filepath.Join(*build, "tmp"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	newRun := func(sub string, tr *tracer) (*run, error) {
		dir := filepath.Join(tmp, sub)
		return &run{bin: *bin, cache: cache, tmp: dir, seed: *seed,
			seconds: time.Duration(*seconds) * time.Second, tr: tr}, os.MkdirAll(dir, 0o755)
	}

	r, err := newRun("plain", nil)
	if err != nil {
		return err
	}
	res, err := wl(r)
	if err != nil {
		return reportFailure(*name, res, err)
	}
	if *trace == 0 {
		return emit(true, res.attempted, res.failed, res.e2e)
	}

	tr := newTracer()
	rt, err := newRun("traced", tr)
	if err != nil {
		return err
	}
	traced, err := wl(rt)
	if err != nil {
		return reportFailure(*name, traced, err)
	}
	layer, err := ladder(tr, cache, filepath.Join(tmp, "ladder"))
	if err != nil {
		return err
	}
	for k, v := range traced.layer {
		layer[k] = v
	}
	fillBatchDefaults(layer)
	for _, k := range []string{"records_per_s", "latency_ms"} {
		layer.set("trace.overhead_"+k, traced.e2e[k].Value-res.e2e[k].Value, res.e2e[k].Unit)
	}
	spans := filepath.Join(*build, "trace", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
	if err := os.MkdirAll(filepath.Dir(spans), 0o755); err != nil {
		return err
	}
	if err := tr.writeJSONL(spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bench: %d spans written to %s\n", len(tr.spans), spans)
	return emit(true, res.attempted+traced.attempted, res.failed+traced.failed, layer)
}

// fillBatchDefaults gives the live-only per-layer values their
// defined value on closed-loop batch runs, which have no schedule and
// no intake: nothing late, nothing excluded, no journal.
func fillBatchDefaults(m metrics) {
	defaults := []struct {
		name, unit string
	}{
		{"live.latency_tail_ms", "ms"}, {"live.fresh_p50_ms", "ms"}, {"live.fresh_tail_ms", "ms"},
		{"live.samples", "count"}, {"gen.late_tail_ms", "ms"}, {"gen.warmup_excluded", "count"},
		{"weblog.chunks_in_flight_max", "count"}, {"stream.fold_lag_chunks_max", "count"},
		{"serve.wal_lag_bytes_max", "bytes"}, {"stream.active_sessions_max", "count"},
		{"go.gc_cycles", "count"}, {"go.gc_pause_ms", "ms"},
	}
	for _, d := range defaults {
		if _, ok := m[d.name]; !ok {
			m.set(d.name, 0, d.unit)
		}
	}
}

// reportFailure prints a failed-correctness result when the workload
// ran but its output was wrong, and returns the error either way.
func reportFailure(name string, res *result, err error) error {
	if res != nil {
		_ = emit(false, max(res.attempted, 1), max(res.failed, 1), res.e2e)
	}
	return fmt.Errorf("%s: %w", name, err)
}

// emit prints the result object as the last stdout line.
func emit(correct bool, attempted, failed int64, m metrics) error {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "  %-34s %14.4f %s\n", k, m[k].Value, m[k].Unit)
	}
	b, err := json.Marshal(struct {
		Correct   bool    `json:"correct"`
		Attempted int64   `json:"attempted"`
		Failed    int64   `json:"failed"`
		Metrics   metrics `json:"metrics"`
	}{correct, max(attempted, 1), failed, m})
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
