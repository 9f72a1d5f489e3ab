package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"sync"
	"time"
)

// newConn returns an HTTP client pinned to one keep-alive connection:
// the generator's load travels over at most two of these, one per CPU.
func newConn() *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     1,
			MaxIdleConnsPerHost: 1,
			DisableCompression:  true,
			DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
		},
	}
}

// outcome of one HTTP operation, stamped against its schedule.
type sample struct {
	Due    time.Time
	Sent   time.Time
	Done   time.Time
	Status int // 0 for a transport error
	Body   []byte
}

func (s sample) ok() bool { return s.Status >= 200 && s.Status < 300 }

// latency is measured from when the operation was due, so a stall
// also charges the operations queued behind it.
func (s sample) latency() time.Duration { return s.Done.Sub(s.Due) }

// late is how far behind its schedule the generator sent it.
func (s sample) late() time.Duration { return s.Sent.Sub(s.Due) }

// do performs one request and reads the whole response.
func do(c *http.Client, method, url string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return 0, nil
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil
	}
	return resp.StatusCode, b
}

// runSchedule sends op i at start+offsets[i] (open loop: it never
// waits for a reply before the next op is due, except that one
// connection carries one request at a time) and returns one sample a
// op. stop, when closed, ends the schedule early; unsent ops keep a
// zero Sent time.
func runSchedule(start time.Time, offsets []time.Duration, stop <-chan struct{}, send func(i int) (int, []byte)) []sample {
	out := make([]sample, len(offsets))
	for i, off := range offsets {
		due := start.Add(off)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-time.After(wait):
			case <-stop:
				return out[:i]
			}
		}
		s := sample{Due: due, Sent: time.Now()}
		s.Status, s.Body = send(i)
		s.Done = time.Now()
		out[i] = s
	}
	return out
}

// evenOffsets spreads n ops evenly over d.
func evenOffsets(n int, d time.Duration) []time.Duration {
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(int64(d) * int64(i) / int64(n))
	}
	return out
}

// lateness summarizes how far behind schedule the generator ran, over
// the samples it sent.
func lateness(samples []sample) []float64 {
	out := make([]float64, 0, len(samples))
	for _, s := range samples {
		if !s.Sent.IsZero() {
			out = append(out, ms(s.late()))
		}
	}
	return out
}

// probe is one reading of the server's folded-record count.
type probe struct {
	At      time.Time
	Records int64
}

// freshness returns, for each delivery whose records the probes saw
// folded, the time from the delivery's due time to the first probe
// that covered it. cum[i] is the folded-record count that covers
// delivery i; deliveries no probe covered are skipped.
func freshness(due []time.Time, cum []int64, probes []probe) []float64 {
	var fresh []float64
	sort.Slice(probes, func(a, b int) bool { return probes[a].At.Before(probes[b].At) })
	j := 0
	for i := range due {
		for j < len(probes) && (probes[j].Records < cum[i] || probes[j].At.Before(due[i])) {
			j++
		}
		if j == len(probes) {
			break
		}
		fresh = append(fresh, ms(probes[j].At.Sub(due[i])))
	}
	return fresh
}

// scraper polls a URL at a fixed period on its own goroutine until
// stopped, handing each 200 body to fn.
type scraper struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

func startScraper(c *http.Client, url string, period time.Duration, fn func(time.Time, []byte)) *scraper {
	s := &scraper{stop: make(chan struct{})}
	s.wg.Add(1)
	//lint:allow rawgo one scraper goroutine; halt stops and joins it
	go func() {
		defer s.wg.Done()
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				if code, body := do(c, http.MethodGet, url, nil); code == http.StatusOK {
					fn(time.Now(), body)
				}
			}
		}
	}()
	return s
}

// halt stops the scraper and waits for its goroutine.
func (s *scraper) halt() {
	close(s.stop)
	s.wg.Wait()
}

func urlf(addr, format string, args ...any) string {
	return "http://" + addr + fmt.Sprintf(format, args...)
}
