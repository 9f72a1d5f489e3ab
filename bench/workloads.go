package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"syscall"
	"time"
)

// run carries one invocation's inputs. tr is nil on untimed-trace
// runs; traced runs also turn on GODEBUG=gctrace=1 and /metrics
// scraping, whose cost is the reported tracing overhead.
type run struct {
	bin     string
	cache   *seedCache
	tmp     string
	seed    int64
	seconds time.Duration
	tr      *tracer
}

func (r *run) traced() bool { return r.tr != nil }

// env is the system process's extra environment.
func (r *run) env() []string {
	if r.traced() {
		return []string{"GODEBUG=gctrace=1"}
	}
	return nil
}

// result is one workload run: its end-to-end values, the per-layer
// values only the live run can see, and its operation accounting.
type result struct {
	e2e       metrics
	layer     metrics
	attempted int64
	failed    int64
}

func newResult() *result { return &result{e2e: metrics{}, layer: metrics{}} }

// setupRuns is how many times each run sets the system up; setup_s is
// their median.
const setupRuns = 5

// noteProc folds a finished system process into the traced layer
// values (GC cycles and pauses are summed over the run's processes).
func (res *result) noteProc(p procResult) {
	res.layer["go.gc_cycles"] = metric{res.layer["go.gc_cycles"].Value + float64(p.GCCycles), "count"}
	res.layer["go.gc_pause_ms"] = metric{res.layer["go.gc_pause_ms"].Value + p.GCPauseMs, "ms"}
}

// archive replays the WVU week through `fullweb stream` with hourly
// snapshots and a checkpoint at each, closed loop: pass after pass
// until the run's time is spent.
func archive(r *run) (*result, error) {
	path, info, err := r.cache.trace("wvu")
	if err != nil {
		return nil, err
	}
	log := filepath.Join(r.tmp, "wvu.log")
	if err := copyFile(path, log); err != nil {
		return nil, err
	}
	res := newResult()
	ckpt := filepath.Join(r.tmp, "ckpt")
	args := []string{"stream", "-log", log, "-snapshot", "1h", "-checkpoint", ckpt}
	var setups, rates, lat, rss []float64
	for i := 0; i < setupRuns-1; i++ {
		p, err := startProc(r.bin, args, nil, "")
		if err != nil {
			return nil, err
		}
		select {
		case <-p.firstLine:
		case <-p.done:
		}
		pr := p.kill()
		if pr.FirstLine.IsZero() {
			return nil, fmt.Errorf("archive: stream printed no header")
		}
		setups = append(setups, pr.FirstLine.Sub(pr.Start).Seconds())
		_ = os.Remove(ckpt)
	}
	var g gauges
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < r.seconds; pass++ {
		_ = os.Remove(ckpt)
		res.attempted++
		var pr procResult
		runID := r.tr.reserve()
		if r.traced() {
			// The traced pass also exposes the live gauges.
			srv, err := startServer(r.bin, r.tmp, args, r.env())
			if err != nil {
				return nil, err
			}
			sc := startScraper(newConn(), urlf(srv.addr, "/metrics"), 100*time.Millisecond, func(_ time.Time, b []byte) { g.scrape(b) })
			pr = srv.p.wait(false)
			sc.halt()
		} else {
			p, err := startProc(r.bin, args, nil, "")
			if err != nil {
				return nil, err
			}
			pr = p.wait(false)
		}
		r.tr.finish(runID, "archive.stream", 0, runID, pr.Start, pr.EOF)
		res.noteProc(pr)
		if err := archiveCheck(pr, info); err != nil {
			res.failed++
			return res, err
		}
		setups = append(setups, pr.FirstLine.Sub(pr.Start).Seconds())
		rates = append(rates, float64(info.Records)/pr.EOF.Sub(pr.FirstLine).Seconds())
		lat = append(lat, ms(pr.EOF.Sub(pr.Start)))
		rss = append(rss, pr.MaxRSSMiB)
	}
	res.e2e.set("setup_s", median(setups), "s")
	res.e2e.set("records_per_s", median(rates), "1/s")
	res.e2e.set("latency_ms", median(lat), "ms")
	res.e2e.set("peak_rss_mib", median(rss), "MiB")
	if r.traced() {
		g.report(res.layer)
	}
	return res, nil
}

func archiveCheck(pr procResult, info traceInfo) error {
	if pr.Err != nil {
		return pr.Err
	}
	block, err := finalBlock(pr.Stdout)
	if err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	if err := checkTotals(block, info.Records, info.Sessions); err != nil {
		return fmt.Errorf("archive: %w", err)
	}
	return nil
}

// characterize runs the batch `fullweb analyze` over the CSEE week:
// closed loop, analysis after analysis until the run's time is spent.
func characterize(r *run) (*result, error) {
	path, info, err := r.cache.trace("csee")
	if err != nil {
		return nil, err
	}
	log := filepath.Join(r.tmp, "csee.log")
	if err := copyFile(path, log); err != nil {
		return nil, err
	}
	res := newResult()
	// -progress prints each finished stage to stderr; the end of the
	// log parse is the analyzer's ready point.
	const ready = "weblog.parse"
	args := []string{"analyze", "-log", log, "-server", "CSEE", "-progress"}
	var setups, rates, lat, rss []float64
	for i := 0; i < setupRuns-1; i++ {
		p, err := startProc(r.bin, args, nil, ready)
		if err != nil {
			return nil, err
		}
		select {
		case <-p.marked:
		case <-p.done:
		}
		pr := p.kill()
		if pr.Mark.IsZero() {
			return nil, fmt.Errorf("characterize: analyze never finished parsing")
		}
		setups = append(setups, pr.Mark.Sub(pr.Start).Seconds())
	}
	start := time.Now()
	for pass := 0; pass == 0 || time.Since(start) < r.seconds; pass++ {
		res.attempted++
		p, err := startProc(r.bin, args, r.env(), ready)
		if err != nil {
			return nil, err
		}
		pr := p.wait(false)
		r.tr.record("characterize.analyze", 0, r.tr.reserve(), pr.Start, pr.EOF)
		res.noteProc(pr)
		if err := characterizeCheck(r.cache, pr, info); err != nil {
			res.failed++
			return res, err
		}
		setups = append(setups, pr.Mark.Sub(pr.Start).Seconds())
		lat = append(lat, ms(pr.EOF.Sub(pr.Start)))
		rates = append(rates, float64(info.Records)/pr.EOF.Sub(pr.Start).Seconds())
		rss = append(rss, pr.MaxRSSMiB)
	}
	res.e2e.set("setup_s", median(setups), "s")
	res.e2e.set("records_per_s", median(rates), "1/s")
	res.e2e.set("latency_ms", median(lat), "ms")
	res.e2e.set("peak_rss_mib", median(rss), "MiB")
	return res, nil
}

func characterizeCheck(c *seedCache, pr procResult, info traceInfo) error {
	if pr.Err != nil {
		return pr.Err
	}
	if err := checkTotals(pr.Stdout, info.Records, info.Sessions); err != nil {
		return fmt.Errorf("characterize: %w", err)
	}
	// The first analysis of a seed becomes the reference; every later
	// one must reproduce it byte for byte.
	ref, err := c.reference("csee.analyze", func() ([]byte, error) { return pr.Stdout, nil })
	if err != nil {
		return err
	}
	return sameBytes("characterize: report", ref, pr.Stdout)
}

// streamFinal is the reference final block: `fullweb stream` over the
// whole trace, computed once per seed.
func streamFinal(r *run, name, path string) ([]byte, error) {
	return r.cache.reference(name+".final", func() ([]byte, error) {
		p, err := startProc(r.bin, []string{"stream", "-log", path}, nil, "")
		if err != nil {
			return nil, err
		}
		pr := p.wait(false)
		if pr.Err != nil {
			return nil, pr.Err
		}
		return finalBlock(pr.Stdout)
	})
}

var newline = []byte{'\n'}

// Delivery sizes, probe cadence and query rate of the live workloads.
const (
	ingestDelivery = 64 << 10
	queryDelivery  = 8 << 10
	probePeriod    = 10 * time.Millisecond
	queryRate      = 200 // queries a second
)

// crashState prepares, once per seed, the journal and checkpoint a
// crashed `fullweb serve -wal` leaves behind after receiving the
// trace's first day: deliver it, wait until the fold goes idle, SIGKILL.
func crashState(r *run, data []byte, info traceInfo) (string, int, error) {
	dir := filepath.Join(r.cache.binDir, "crash")
	deliveries := splitDeliveries(data[:info.Day1Bytes], ingestDelivery)
	if err := r.cache.verify(r.cache.binDir, "crash"); err == nil {
		return dir, len(deliveries), nil
	}
	_ = os.RemoveAll(dir)
	work := filepath.Join(r.tmp, "crash")
	if err := os.MkdirAll(work, 0o755); err != nil {
		return "", 0, err
	}
	srv, err := startServer(r.bin, work, []string{"serve", "-source", "wvu",
		"-wal", filepath.Join(work, "wal"), "-checkpoint", filepath.Join(work, "ckpt")}, nil)
	if err != nil {
		return "", 0, err
	}
	defer srv.p.kill()
	c := newConn()
	if _, err := srv.waitReady(c); err != nil {
		return "", 0, err
	}
	for i, d := range deliveries {
		if code, body := do(c, http.MethodPost, urlf(srv.addr, "/ingest?source=wvu&delivery=d%d", i), d); code != http.StatusOK {
			return "", 0, fmt.Errorf("crash prep: delivery %d: %d %s", i, code, body)
		}
	}
	last, stable := int64(-1), 0
	for stable < 50 {
		time.Sleep(10 * time.Millisecond)
		_, body := do(c, http.MethodGet, urlf(srv.addr, "/readyz"), nil)
		n, _ := readyzRecords(body)
		if n == last {
			stable++
		} else {
			last, stable = n, 0
		}
	}
	srv.p.kill()
	_ = os.Remove(filepath.Join(work, "addr"))
	if err := os.Rename(work, dir); err != nil {
		return "", 0, fmt.Errorf("caching crash state: %w", err)
	}
	return dir, len(deliveries), r.cache.seal(r.cache.binDir, "crash")
}

// liveIngest restarts `fullweb serve -wal -checkpoint -resume` over the
// crashed first-day state and POSTs days 2-7 open loop on a fixed
// schedule over one connection, probing freshness on the other.
func liveIngest(r *run) (*result, error) {
	path, info, err := r.cache.trace("wvu")
	if err != nil {
		return nil, err
	}
	ref, err := streamFinal(r, "wvu", path)
	if err != nil {
		return nil, err
	}
	data, err := readLog(path)
	if err != nil {
		return nil, err
	}
	crash, day1Deliveries, err := crashState(r, data, info)
	if err != nil {
		return nil, err
	}
	deliveries := splitDeliveries(data[info.Day1Bytes:], ingestDelivery)
	args := func(dir string) []string {
		return []string{"serve", "-source", "wvu", "-wal", filepath.Join(dir, "wal"),
			"-checkpoint", filepath.Join(dir, "ckpt"), "-resume"}
	}
	res := newResult()
	srv, setups, err := setUp(r, func(i int) (*server, error) {
		dir := filepath.Join(r.tmp, "state"+strconv.Itoa(i))
		if err := copyTree(crash, dir); err != nil {
			return nil, err
		}
		return startServer(r.bin, dir, args(dir), r.env())
	})
	if err != nil {
		return nil, err
	}
	defer srv.p.kill()

	cum := make([]int64, len(deliveries))
	total := info.Day1Records
	for i, d := range deliveries {
		total += int64(bytes.Count(d, newline))
		cum[i] = total
	}
	connA, connB := newConn(), newConn()
	start := time.Now().Add(20 * time.Millisecond)
	var probes []probe
	var g gauges
	var sc *scraper
	if r.traced() {
		sc = startScraper(connB, urlf(srv.addr, "/metrics"), 100*time.Millisecond, func(_ time.Time, b []byte) { g.scrape(b) })
	}
	stopProbe := make(chan struct{})
	probeDone := make(chan []sample)
	nProbe := int((r.seconds + 5*time.Second) / probePeriod)
	//lint:allow rawgo the freshness probe on the second connection; joined through probeDone
	go func() {
		probeDone <- runSchedule(start, evenOffsets(nProbe, time.Duration(nProbe)*probePeriod), stopProbe, func(int) (int, []byte) {
			return do(connB, http.MethodGet, urlf(srv.addr, "/readyz"), nil)
		})
	}()
	acks := runSchedule(start, evenOffsets(len(deliveries), r.seconds), nil, func(i int) (int, []byte) {
		sendAt := time.Now()
		code, body := do(connA, http.MethodPost, urlf(srv.addr, "/ingest?source=wvu&delivery=d%d", day1Deliveries+i), deliveries[i])
		r.tr.record("serve.ingest", 0, r.tr.reserve(), sendAt, time.Now())
		return code, body
	})
	completeCode, _ := do(connA, http.MethodPost, urlf(srv.addr, "/ingest?source=wvu&complete=1"), nil)
	// Let the probe see the tail fold, then stop it and drain.
	waitFolded(connA, srv.addr, total, 5*time.Second)
	close(stopProbe)
	probeSamples := <-probeDone
	if sc != nil {
		sc.halt()
	}
	srv.p.signal(syscall.SIGTERM)
	pr := srv.p.wait(false)
	r.tr.record("live-ingest.serve", 0, r.tr.reserve(), pr.Start, pr.EOF)
	res.noteProc(pr)

	res.attempted = int64(len(acks) + len(probeSamples) + 1)
	for _, s := range append(acks, probeSamples...) {
		if !s.ok() {
			res.failed++
		}
	}
	if completeCode != http.StatusOK {
		res.failed++
	}
	for _, s := range probeSamples {
		if n, ok := readyzRecords(s.Body); ok {
			probes = append(probes, probe{At: s.Done, Records: n})
		}
	}
	// Warm-up: deliveries due before the journal replay had folded the
	// whole first day are excluded from the percentiles.
	replayed := time.Time{}
	for _, p := range probes {
		if p.Records >= info.Day1Records {
			replayed = p.At
			break
		}
	}
	var ackLat []float64
	var due []time.Time
	var dueCum []int64
	excluded := 0
	for i, s := range acks {
		if replayed.IsZero() || s.Due.Before(replayed) {
			excluded++
			continue
		}
		ackLat = append(ackLat, ms(s.latency()))
		due = append(due, s.Due)
		dueCum = append(dueCum, cum[i])
	}
	fresh := freshness(due, dueCum, probes)

	if err := checkFinal("live-ingest", pr, ref); err != nil {
		return res, err
	}
	res.e2e.set("setup_s", median(setups), "s")
	res.e2e.set("records_per_s", float64(total-info.Day1Records)/pr.EOF.Sub(start).Seconds(), "1/s")
	res.e2e.set("latency_ms", median(ackLat), "ms")
	res.e2e.set("peak_rss_mib", pr.MaxRSSMiB, "MiB")
	liveLayer(res, ackLat, fresh, acks, excluded)
	if r.traced() {
		g.report(res.layer)
	}
	return res, nil
}

// setUp starts the server setupRuns times, timing exec to /readyz 200
// each time; it keeps the last one running and returns it.
func setUp(r *run, start func(i int) (*server, error)) (*server, []float64, error) {
	var setups []float64
	c := newConn()
	for i := 0; i < setupRuns; i++ {
		srv, err := start(i)
		if err != nil {
			return nil, nil, err
		}
		d, err := srv.waitReady(c)
		if err != nil {
			srv.p.kill()
			return nil, nil, err
		}
		setups = append(setups, d.Seconds())
		if i == setupRuns-1 {
			return srv, setups, nil
		}
		srv.p.kill()
	}
	panic("unreachable")
}

// waitFolded polls /readyz until the folded-record count reaches want.
func waitFolded(c *http.Client, addr string, want int64, limit time.Duration) {
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		_, body := do(c, http.MethodGet, urlf(addr, "/readyz"), nil)
		if n, ok := readyzRecords(body); ok && n >= want {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func checkFinal(what string, pr procResult, ref []byte) error {
	if pr.Err != nil {
		return pr.Err
	}
	got, err := finalBlock(pr.Stdout)
	if err != nil {
		return fmt.Errorf("%s: %w", what, err)
	}
	return sameBytes(what+": final block vs fullweb stream", ref, got)
}

// liveLayer sets the per-layer values every live run reports: the
// latency tail, freshness, and the generator's own health.
func liveLayer(res *result, lat, fresh []float64, sent []sample, excluded int) {
	v, _ := tail(lat)
	res.layer.set("live.latency_tail_ms", v, "ms")
	res.layer.set("live.samples", float64(len(lat)), "count")
	res.layer.set("live.fresh_p50_ms", median(fresh), "ms")
	v, _ = tail(fresh)
	res.layer.set("live.fresh_tail_ms", v, "ms")
	v, _ = tail(lateness(sent))
	res.layer.set("gen.late_tail_ms", v, "ms")
	res.layer.set("gen.warmup_excluded", float64(excluded), "count")
}

// query is one entry of live-query's seeded read mix.
type query struct {
	path  string
	probe bool // a /readyz freshness probe, not a timed query
}

// queryMix precomputes live-query's second-connection schedule: about
// queryRate seeded queries a second (mostly /whatif with varied scale,
// capacity, servers and slots; some /snapshot, /metrics, /healthz),
// with a /readyz freshness probe every 20ms between them.
func queryMix(seed int64, d time.Duration) ([]query, []time.Duration) {
	rng := rand.New(rand.NewSource(seed))
	n := int(d.Seconds() * queryRate)
	var qs []query
	var offs []time.Duration
	probeEvery := 20 * time.Millisecond
	nextProbe := time.Duration(0)
	for i := 0; i < n; i++ {
		at := time.Duration(int64(d) * int64(i) / int64(n))
		for nextProbe <= at {
			qs = append(qs, query{path: "/readyz", probe: true})
			offs = append(offs, nextProbe)
			nextProbe += probeEvery
		}
		var q string
		switch u := rng.Float64(); {
		case u < 0.7:
			slots := 0
			if rng.Intn(2) == 0 {
				slots = 8 + rng.Intn(249)
			}
			q = fmt.Sprintf("/whatif?scale=%.2f&capacity=%.2f&servers=%d&slots=%d",
				0.5+3.5*rng.Float64(), 0.5+19.5*rng.Float64(), 1+rng.Intn(8), slots)
		case u < 0.8:
			q = "/snapshot"
		case u < 0.9:
			q = "/metrics"
		default:
			q = "/healthz"
		}
		qs = append(qs, query{path: q})
		offs = append(offs, at)
	}
	return qs, offs
}

// liveQuery runs a fresh journal-less `fullweb serve` with a day-long
// what-if window, feeds it ClarkNet at a low fixed rate over one
// connection and runs the seeded query mix over the other.
func liveQuery(r *run) (*result, error) {
	path, _, err := r.cache.trace("clarknet")
	if err != nil {
		return nil, err
	}
	ref, err := streamFinal(r, "clarknet", path)
	if err != nil {
		return nil, err
	}
	data, err := readLog(path)
	if err != nil {
		return nil, err
	}
	deliveries := splitDeliveries(data, queryDelivery)
	res := newResult()
	srv, setups, err := setUp(r, func(int) (*server, error) {
		return startServer(r.bin, r.tmp, []string{"serve", "-source", "clarknet", "-whatif-window", "86400"}, r.env())
	})
	if err != nil {
		return nil, err
	}
	defer srv.p.kill()

	cum := make([]int64, len(deliveries))
	var total int64
	for i, d := range deliveries {
		total += int64(bytes.Count(d, newline))
		cum[i] = total
	}
	connA, connB := newConn(), newConn()
	start := time.Now().Add(20 * time.Millisecond)
	qs, offs := queryMix(r.seed, r.seconds)
	var g gauges
	var sc *scraper
	if r.traced() {
		sc = startScraper(connB, urlf(srv.addr, "/metrics"), 100*time.Millisecond, func(_ time.Time, b []byte) { g.scrape(b) })
	}
	// Queries start once /whatif and /snapshot can answer (the first
	// arrival publication); until then each due query is replaced by a
	// readiness check and excluded as warm-up.
	ready := false
	warm := make([]bool, len(qs))
	querySamples := make(chan []sample)
	//lint:allow rawgo the query mix on the second connection; joined through querySamples
	go func() {
		querySamples <- runSchedule(start, offs, nil, func(i int) (int, []byte) {
			q := qs[i]
			if !ready && !q.probe {
				warm[i] = true
				c1, _ := do(connB, http.MethodGet, urlf(srv.addr, "/whatif?scale=1&capacity=1"), nil)
				c2, _ := do(connB, http.MethodGet, urlf(srv.addr, "/snapshot"), nil)
				ready = c1 == http.StatusOK && c2 == http.StatusOK
				return http.StatusOK, nil
			}
			sendAt := time.Now()
			code, body := do(connB, http.MethodGet, urlf(srv.addr, q.path), nil)
			if !q.probe {
				r.tr.record("serve.query", 0, r.tr.reserve(), sendAt, time.Now())
			}
			return code, body
		})
	}()
	acks := runSchedule(start, evenOffsets(len(deliveries), r.seconds), nil, func(i int) (int, []byte) {
		return do(connA, http.MethodPost, urlf(srv.addr, "/ingest?source=clarknet"), deliveries[i])
	})
	samples := <-querySamples
	completeCode, _ := do(connA, http.MethodPost, urlf(srv.addr, "/ingest?source=clarknet&complete=1"), nil)
	if sc != nil {
		sc.halt()
	}
	srv.p.signal(syscall.SIGTERM)
	pr := srv.p.wait(false)
	r.tr.record("live-query.serve", 0, r.tr.reserve(), pr.Start, pr.EOF)
	res.noteProc(pr)

	res.attempted = int64(len(acks) + len(samples) + 1)
	for _, s := range acks {
		if !s.ok() {
			res.failed++
		}
	}
	if completeCode != http.StatusOK {
		res.failed++
	}
	var lat []float64
	var probes []probe
	excluded := 0
	for i, s := range samples {
		if !s.ok() {
			res.failed++
			continue
		}
		switch {
		case qs[i].probe:
			if n, ok := readyzRecords(s.Body); ok {
				probes = append(probes, probe{At: s.Done, Records: n})
			}
		case warm[i]:
			excluded++
		default:
			lat = append(lat, ms(s.latency()))
		}
	}
	due := make([]time.Time, len(acks))
	for i, s := range acks {
		due[i] = s.Due
	}
	fresh := freshness(due, cum, probes)

	if err := checkFinal("live-query", pr, ref); err != nil {
		return res, err
	}
	res.e2e.set("setup_s", median(setups), "s")
	res.e2e.set("records_per_s", float64(total)/pr.EOF.Sub(start).Seconds(), "1/s")
	res.e2e.set("latency_ms", median(lat), "ms")
	res.e2e.set("peak_rss_mib", pr.MaxRSSMiB, "MiB")
	liveLayer(res, lat, fresh, samples, excluded)
	if r.traced() {
		g.report(res.layer)
	}
	return res, nil
}
