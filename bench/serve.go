package main

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// server is a running `fullweb serve` (or `fullweb stream -listen`)
// with its bound HTTP address.
type server struct {
	p    *proc
	addr string
}

// startServer execs bin with args plus a loopback listener whose
// address is written under dir, and returns once the address is known.
func startServer(bin, dir string, args, env []string) (*server, error) {
	addrFile := filepath.Join(dir, "addr")
	_ = os.Remove(addrFile)
	args = append(args, "-listen", "127.0.0.1:0", "-listen-addr-file", addrFile)
	p, err := startProc(bin, args, env, "")
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(60 * time.Second)
	for {
		if b, err := os.ReadFile(addrFile); err == nil && strings.HasSuffix(string(b), "\n") {
			return &server{p: p, addr: strings.TrimSpace(string(b))}, nil
		}
		select {
		case <-p.done:
			res := p.wait(false)
			if res.Err == nil {
				res.Err = errors.New("exited before binding")
			}
			return nil, fmt.Errorf("server: %w", res.Err)
		default:
		}
		if time.Now().After(deadline) {
			p.kill()
			return nil, errors.New("server: no listen address within 60s")
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// waitReady polls /readyz until it answers 200 and returns the time
// from exec to that answer: the server's set-up time.
func (s *server) waitReady(c *http.Client) (time.Duration, error) {
	deadline := time.Now().Add(60 * time.Second)
	for {
		code, _ := do(c, http.MethodGet, urlf(s.addr, "/readyz"), nil)
		if code == http.StatusOK {
			return time.Since(s.p.start), nil
		}
		if time.Now().After(deadline) {
			return 0, errors.New("server: not ready within 60s")
		}
		time.Sleep(500 * time.Microsecond)
	}
}

// readyzRecords parses the folded-record count from a /readyz body.
func readyzRecords(body []byte) (int64, bool) {
	const key = `"records":`
	i := strings.Index(string(body), key)
	if i < 0 {
		return 0, false
	}
	rest := strings.TrimLeft(string(body[i+len(key):]), " ")
	var n int64
	k := 0
	for ; k < len(rest) && rest[k] >= '0' && rest[k] <= '9'; k++ {
		n = n*10 + int64(rest[k]-'0')
	}
	return n, k > 0
}

// gauges are the live values scraped from /metrics during a traced
// run, one slice of readings a gauge.
type gauges struct {
	inFlight, foldLag, walLag, active []float64
}

// scrape folds one /metrics exposition into the readings.
func (g *gauges) scrape(body []byte) {
	vals := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		var f float64
		if _, err := fmt.Sscan(v, &f); err == nil {
			vals[name] = f
		}
	}
	g.inFlight = append(g.inFlight, vals["fullweb_weblog_chunks_in_flight"])
	g.foldLag = append(g.foldLag, vals["fullweb_weblog_chunks_parsed"]-vals["fullweb_stream_chunks_folded"])
	g.walLag = append(g.walLag, vals["fullweb_serve_wal_lag_bytes"])
	g.active = append(g.active, vals["fullweb_stream_active_sessions"])
}

// report sets the gauge metrics: the largest reading of each (a run
// scrapes about a hundred times, too few for a p99).
func (g *gauges) report(m metrics) {
	m.set("weblog.chunks_in_flight_max", maxOf(g.inFlight), "count")
	m.set("stream.fold_lag_chunks_max", maxOf(g.foldLag), "count")
	m.set("serve.wal_lag_bytes_max", maxOf(g.walLag), "bytes")
	m.set("stream.active_sessions_max", maxOf(g.active), "count")
}
