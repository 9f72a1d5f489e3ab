package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"time"

	"fullweb/internal/core"
	"fullweb/internal/lrd"
	"fullweb/internal/parallel"
	"fullweb/internal/queueing"
	"fullweb/internal/serve"
	"fullweb/internal/session"
	"fullweb/internal/stream"
	"fullweb/internal/timeseries"
	"fullweb/internal/weblog"
)

// cost is one rung's measured work: wall time and heap traffic.
type cost struct {
	wall          time.Duration
	allocs, bytes uint64
}

// measure runs fn inside a span and reports its wall time and the heap
// allocations made meanwhile (by any goroutine, so a rung that runs a
// server also counts its fold).
func measure(tr *tracer, name string, fn func() error) (cost, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	wall, err := tr.timed("ladder."+name, fn)
	runtime.ReadMemStats(&after)
	if err != nil {
		return cost{}, fmt.Errorf("ladder %s: %w", name, err)
	}
	return cost{wall: wall, allocs: after.Mallocs - before.Mallocs, bytes: after.TotalAlloc - before.TotalAlloc}, nil
}

func perRecord(c cost, n int64) (ns, allocs, bytes float64) {
	f := float64(n)
	return float64(c.wall.Nanoseconds()) / f, float64(c.allocs) / f, float64(c.bytes) / f
}

// ladder times calls into each module's public functions in-process,
// one rung a layer, over the seed's cached traces: the WVU week for the
// file path (read, parse, sessionize, fold, snapshot, checkpoint), its
// first day for the intake path (HTTP, journal, TCP), ClarkNet for the
// what-if and telemetry queries, and CSEE for the batch estimators.
func ladder(tr *tracer, cache *seedCache, tmp string) (metrics, error) {
	m := metrics{}
	path, info, err := cache.trace("wvu")
	if err != nil {
		return nil, err
	}
	week, err := readLog(path)
	if err != nil {
		return nil, err
	}
	if err := fileRungs(tr, m, week, info); err != nil {
		return nil, err
	}
	if err := intakeRungs(tr, m, week[:info.Day1Bytes], info.Day1Records, tmp); err != nil {
		return nil, err
	}
	cpath, _, err := cache.trace("clarknet")
	if err != nil {
		return nil, err
	}
	clark, err := readLog(cpath)
	if err != nil {
		return nil, err
	}
	if err := queryRungs(tr, m, clark); err != nil {
		return nil, err
	}
	spath, _, err := cache.trace("csee")
	if err != nil {
		return nil, err
	}
	csee, err := readLog(spath)
	if err != nil {
		return nil, err
	}
	if err := estimatorRungs(tr, m, csee); err != nil {
		return nil, err
	}
	return m, nil
}

// chunkClock is a stream.Telemetry that stamps each runtime
// publication (one per folded chunk).
type chunkClock struct{ at []time.Time }

func (c *chunkClock) PublishRuntime(stream.RuntimeStats) { c.at = append(c.at, time.Now()) }
func (c *chunkClock) PublishSnapshot(*stream.Snapshot)   {}

// fileRungs: L0 read, L1 parse, L2 sessionize, L3 fold, L4 snapshot
// cadence, L5 checkpoint.
func fileRungs(tr *tracer, m metrics, week []byte, info traceInfo) error {
	ctx := context.Background()
	n := info.Records
	read, err := measure(tr, "weblog.read", func() error {
		return weblog.ReadChunksCtx(ctx, bytes.NewReader(week), parallel.NewPool(1), weblog.ChunkConfig{},
			func(weblog.Chunk) error { return nil })
	})
	if err != nil {
		return err
	}
	ns, allocs, b := perRecord(read, n)
	m.set("weblog.read_ns_per_record", ns, "ns")
	m.set("weblog.allocs_per_record", allocs, "count")
	m.set("weblog.bytes_per_record", b, "bytes")

	lines := strings.Split(strings.TrimSuffix(string(week[:info.Day1Bytes]), "\n"), "\n")
	recs := make([]weblog.Record, 0, len(lines))
	parse, err := measure(tr, "weblog.parse", func() error {
		for _, l := range lines {
			r, err := weblog.ParseCLF(l)
			if err != nil {
				return err
			}
			recs = append(recs, r)
		}
		return nil
	})
	if err != nil {
		return err
	}
	ns, _, _ = perRecord(parse, int64(len(lines)))
	m.set("weblog.parse_ns_per_record", ns, "ns")

	st, err := session.NewStreamer(session.DefaultThreshold)
	if err != nil {
		return err
	}
	obsv, err := measure(tr, "session.observe", func() error {
		for _, r := range recs {
			if _, err := st.ObserveClamped(r); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	ns, allocs, _ = perRecord(obsv, int64(len(recs)))
	m.set("session.observe_ns_per_record", ns, "ns")
	m.set("session.allocs_per_record", allocs, "count")
	m.set("session.peak_active", float64(st.PeakActiveSessions()), "count")

	process := func(name string, every time.Duration, tele stream.Telemetry) (cost, *stream.Engine, error) {
		cfg := stream.DefaultConfig()
		cfg.SnapshotEvery = every
		cfg.Workers = 1
		if tele != nil {
			cfg.Telemetry = tele
		}
		e, err := stream.NewEngine(cfg)
		if err != nil {
			return cost{}, nil, err
		}
		c, err := measure(tr, name, func() error {
			_, err := e.ProcessCtx(ctx, bytes.NewReader(week), func(*stream.Snapshot) error { return nil })
			return err
		})
		return c, e, err
	}
	off, _, err := process("stream.process_off", 0, nil)
	if err != nil {
		return err
	}
	fold := cost{wall: off.wall - read.wall, allocs: off.allocs - read.allocs, bytes: off.bytes - read.bytes}
	ns, allocs, b = perRecord(fold, n)
	m.set("stream.fold_ns_per_record", ns, "ns")
	m.set("stream.fold_allocs_per_record", allocs, "count")
	m.set("stream.fold_bytes_per_record", b, "bytes")

	clock := &chunkClock{}
	hourly, eng, err := process("stream.process_1h", time.Hour, clock)
	if err != nil {
		return err
	}
	m.set("stream.snapshot_us", float64((hourly.wall-off.wall).Microseconds())/float64(eng.Snapshots()), "us")
	var gaps []float64
	for i := 1; i < len(clock.at); i++ {
		gaps = append(gaps, ms(clock.at[i].Sub(clock.at[i-1])))
	}
	m.set("stream.chunk_interval_ms_p50", median(gaps), "ms")
	p90, err := percentile(gaps, 90)
	if err != nil {
		return fmt.Errorf("chunk intervals: %w", err)
	}
	m.set("stream.chunk_interval_ms_p90", p90, "ms")

	var ckpt []float64
	var size int
	for i := 0; i < 5; i++ {
		var buf bytes.Buffer
		c, err := measure(tr, "stream.checkpoint", func() error { return eng.WriteCheckpoint(&buf) })
		if err != nil {
			return err
		}
		ckpt = append(ckpt, ms(c.wall))
		size = buf.Len()
	}
	m.set("stream.checkpoint_ms", median(ckpt), "ms")
	m.set("stream.checkpoint_kib", float64(size)/1024, "KiB")
	return nil
}

// running is a serve.Server's fold on its own goroutine.
type running struct {
	srv  *serve.Server
	done chan struct{}
	err  error
}

func runServer(srv *serve.Server) *running {
	r := &running{srv: srv, done: make(chan struct{})}
	//lint:allow rawgo one in-process server fold; stop joins it
	go func() {
		defer close(r.done)
		_, r.err = srv.Run(context.Background(), func(*stream.Snapshot) error { return nil })
	}()
	return r
}

// published waits for Run's first runtime publication, which follows
// the journal scan when there is one (intake refuses deliveries until
// the journal is open).
func (r *running) published() error {
	for {
		if _, _, ok := r.srv.Holder().LatestRuntime(); ok {
			return nil
		}
		select {
		case <-r.done:
			return fmt.Errorf("serve run ended before publishing: %v", r.err)
		case <-time.After(50 * time.Microsecond):
		}
	}
}

// stop waits for Run to return. After a failure it drains the server
// first, since a source that never completes would keep Run folding.
func (r *running) stop(err error) error {
	if err != nil {
		r.srv.Drain()
	}
	<-r.done
	if err != nil {
		return err
	}
	return r.err
}

func newServer(source string, window int, wal *serve.WALConfig) (*serve.Server, error) {
	cfg := stream.DefaultConfig()
	cfg.ArrivalWindow = window
	return serve.New(serve.Config{Sources: []string{source}, Engine: cfg, WAL: wal})
}

// post delivers each piece through the server's handler in-process and
// completes the source, returning the summed handler time.
func post(srv *serve.Server, source string, pieces [][]byte) (time.Duration, error) {
	h := srv.Handler()
	var total time.Duration
	for i, p := range pieces {
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/ingest?source=%s&delivery=d%d", source, i), bytes.NewReader(p))
		w := httptest.NewRecorder()
		start := time.Now()
		h.ServeHTTP(w, req)
		total += time.Since(start)
		if w.Code != http.StatusOK {
			return 0, fmt.Errorf("delivery %d: %d %s", i, w.Code, w.Body.String())
		}
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/ingest?source="+source+"&complete=1", nil))
	if w.Code != http.StatusOK {
		return 0, fmt.Errorf("complete: %d", w.Code)
	}
	return total, nil
}

// intakeRungs: L6 HTTP and TCP intake, L7 journal, and journal open.
func intakeRungs(tr *tracer, m metrics, day []byte, records int64, tmp string) error {
	pieces := splitDeliveries(day, ingestDelivery)
	ingest := func(name string, wal *serve.WALConfig) (cost, time.Duration, error) {
		var handler time.Duration
		c, err := measure(tr, name, func() error {
			srv, err := newServer("wvu", 0, wal)
			if err != nil {
				return err
			}
			run := runServer(srv)
			if err := run.published(); err != nil {
				return run.stop(err)
			}
			handler, err = post(srv, "wvu", pieces)
			return run.stop(err)
		})
		return c, handler, err
	}
	plain, plainHandler, err := ingest("serve.ingest", nil)
	if err != nil {
		return err
	}
	_, allocs, b := perRecord(plain, records)
	perDelivery := func(d time.Duration) float64 { return float64(d.Microseconds()) / float64(len(pieces)) }
	m.set("serve.ingest_us_per_delivery", perDelivery(plainHandler), "us")
	m.set("serve.ingest_allocs_per_record", allocs, "count")
	m.set("serve.ingest_bytes_per_record", b, "bytes")

	walDir := tmp + "/wal"
	_, walHandler, err := ingest("serve.ingest_wal", &serve.WALConfig{Dir: walDir})
	if err != nil {
		return err
	}
	m.set("serve.wal_us_per_delivery", perDelivery(walHandler)-perDelivery(plainHandler), "us")

	// Reopen the journal just written: Run's first runtime publication
	// follows the journal scan.
	var open time.Duration
	if _, err := measure(tr, "serve.wal_open", func() error {
		srv, err := newServer("wvu", 0, &serve.WALConfig{Dir: walDir, Resume: true})
		if err != nil {
			return err
		}
		start := time.Now()
		run := runServer(srv)
		err = run.published()
		open = time.Since(start)
		return run.stop(err)
	}); err != nil {
		return err
	}
	m.set("serve.wal_open_ms", ms(open), "ms")

	tcp, err := measure(tr, "serve.tcp", func() error {
		srv, err := newServer("wvu", 0, nil)
		if err != nil {
			return err
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		srv.StartTCP(ln)
		run := runServer(srv)
		err = run.stop(sendTCP(ln.Addr().String(), "wvu", day))
		srv.Drain() // closes the TCP listener
		return err
	})
	if err != nil {
		return err
	}
	ns, _, _ := perRecord(tcp, records)
	m.set("serve.tcp_ns_per_record", ns, "ns")
	return nil
}

// sendTCP streams data to a raw intake listener as one source; closing
// the connection completes the source.
func sendTCP(addr, source string, data []byte) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if _, err := conn.Write([]byte("fullweb-intake " + source + "\n")); err != nil {
		conn.Close()
		return err
	}
	if _, err := conn.Write(data); err != nil {
		conn.Close()
		return err
	}
	return conn.Close()
}

// queryRungs fills a day-window server with the ClarkNet week
// in-process, then times the what-if, fluid-queue and telemetry
// handler calls against its final publications.
func queryRungs(tr *tracer, m metrics, clark []byte) error {
	srv, err := newServer("clarknet", 86400, nil)
	if err != nil {
		return err
	}
	run := runServer(srv)
	_, err = post(srv, "clarknet", splitDeliveries(clark, queryDelivery))
	if err := run.stop(err); err != nil {
		return err
	}
	pub, ok := srv.Holder().LatestArrivals()
	if !ok {
		return fmt.Errorf("ladder: no arrival series published")
	}
	const reps = 200
	timeEach := func(name string, fn func(i int) error) (float64, error) {
		var us []float64
		for i := 0; i < reps; i++ {
			c, err := tr.timed("ladder."+name, func() error { return fn(i) })
			if err != nil {
				return 0, fmt.Errorf("ladder %s: %w", name, err)
			}
			us = append(us, float64(c.Nanoseconds())/1e3)
		}
		return median(us), nil
	}
	caps := []float64{1, 2, 5, 10}
	whatif, err := timeEach("serve.whatif", func(i int) error {
		_, err := serve.ComputeWhatIf(srv.Holder(), serve.WhatIfQuery{Scale: 0.5 + float64(i%8)/2, Capacity: caps[i%4], Servers: 1 + i%4, Slots: 64})
		return err
	})
	if err != nil {
		return err
	}
	m.set("serve.whatif_us", whatif, "us")
	fluid, err := timeEach("queueing.fluid", func(i int) error {
		_, err := queueing.FluidQueue(pub.Series.Requests, caps[i%4])
		return err
	})
	if err != nil {
		return err
	}
	m.set("queueing.fluid_us", fluid, "us")
	for _, ep := range []string{"metrics", "snapshot", "healthz"} {
		v, err := timeEach("telemetry."+ep, func(int) error {
			w := httptest.NewRecorder()
			srv.Handler().ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/"+ep, nil))
			// An unhealthy /healthz still answers, with 503.
			if w.Code != http.StatusOK && !(ep == "healthz" && w.Code == http.StatusServiceUnavailable) {
				return fmt.Errorf("/%s: %d", ep, w.Code)
			}
			return nil
		})
		if err != nil {
			return err
		}
		m.set("telemetry."+ep+"_us", v, "us")
	}
	return nil
}

// estimatorRungs times the batch estimators `fullweb analyze` runs,
// over the CSEE week's request and session arrival series.
func estimatorRungs(tr *tracer, m metrics, csee []byte) error {
	ctx := context.Background()
	recs, _, err := weblog.ReadAll(bytes.NewReader(csee))
	if err != nil {
		return err
	}
	store := weblog.NewStore(recs)
	counts, err := store.CountsPerSecond()
	if err != nil {
		return err
	}
	sessions, err := session.SessionizeCtx(ctx, store.All(), session.DefaultThreshold)
	if err != nil {
		return err
	}
	sessCounts, err := session.InitiatedPerSecond(sessions)
	if err != nil {
		return err
	}
	an, err := core.NewAnalyzer(core.DefaultConfig())
	if err != nil {
		return err
	}
	timeRung := func(metric, name string, fn func() error) error {
		d, err := tr.timed("ladder."+name, fn)
		if err != nil {
			return fmt.Errorf("ladder %s: %w", name, err)
		}
		m.set(metric, d.Seconds(), "s")
		return nil
	}
	if err := timeRung("core.arrivals_s", "core.arrivals", func() error {
		for _, series := range [][]float64{counts, sessCounts} {
			if _, err := an.AnalyzeArrivalSeriesCtx(ctx, series); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := timeRung("lrd.battery_s", "lrd.battery", func() error {
		_, err := lrd.RunBatteryCtx(ctx, counts, an.Pool())
		return err
	}); err != nil {
		return err
	}
	if err := timeRung("lrd.sweep_s", "lrd.sweep", func() error {
		_, err := lrd.AggregationSweepCtx(ctx, counts, lrd.AggregatedVariance, lrd.DefaultSweepLevels(len(counts), core.DefaultConfig().SweepMinBlocks))
		return err
	}); err != nil {
		return err
	}
	if err := timeRung("timeseries.stationarize_s", "timeseries.stationarize", func() error {
		_, err := timeseries.Stationarize(counts, timeseries.DefaultStationarizeConfig())
		return err
	}); err != nil {
		return err
	}
	windows, err := store.SelectTypicalWindows(core.DefaultConfig().WindowDuration)
	if err != nil {
		return err
	}
	levels := []weblog.WorkloadLevel{weblog.Low, weblog.Med, weblog.High}
	if err := timeRung("gof.poisson_s", "gof.poisson", func() error {
		for _, level := range levels {
			w, ok := windows[level]
			if !ok {
				continue
			}
			in := store.Range(w.Start, w.Start.Add(w.Duration))
			secs := make([]int64, len(in))
			for i, r := range in {
				secs[i] = r.Time.Unix()
			}
			if _, err := an.AnalyzePoissonCtx(ctx, level, w, secs); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return timeRung("core.tails_s", "core.tails", func() error {
		subsets := map[string][]session.Session{core.IntervalWeek: sessions}
		order := []string{core.IntervalWeek}
		for _, level := range levels {
			w, ok := windows[level]
			if !ok {
				continue
			}
			var in []session.Session
			for _, s := range sessions {
				if !s.Start.Before(w.Start) && s.Start.Before(w.Start.Add(w.Duration)) {
					in = append(in, s)
				}
			}
			subsets[level.String()] = in
			order = append(order, level.String())
		}
		for _, interval := range order {
			for _, char := range core.AllCharacteristics() {
				if _, err := an.AnalyzeTailCtx(ctx, char, interval, core.CharacteristicValues(char, subsets[interval])); err != nil {
					return err
				}
			}
		}
		return nil
	})
}
