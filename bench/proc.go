package main

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"time"
)

// proc is one run of the system under test: a fullweb process whose
// stdout is kept whole and whose first stdout line, first stderr line
// containing mark, and stdout EOF are stamped as they happen.
type proc struct {
	cmd   *exec.Cmd
	start time.Time

	firstLine chan struct{} // closed at the first stdout line
	marked    chan struct{} // closed at the first stderr line holding mark
	done      chan struct{} // closed once both pipes hit EOF

	mu          sync.Mutex
	stdout      bytes.Buffer
	gcLines     []string
	stderrTail  []string
	firstLineAt time.Time
	markAt      time.Time
	eofAt       time.Time
	hwmKiB      int64 // largest VmHWM read from /proc while it ran
}

// procResult is what a finished process leaves behind.
type procResult struct {
	Stdout    []byte
	Start     time.Time
	FirstLine time.Time
	Mark      time.Time
	EOF       time.Time
	MaxRSSMiB float64
	CPU       time.Duration
	GCCycles  int
	GCPauseMs float64
	Err       error
}

// startProc execs bin with args in dir. env entries are added to the
// benchmark's own environment. mark, when non-empty, is the stderr
// substring whose first appearance is stamped.
func startProc(bin string, args []string, env []string, mark string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.Env = append(os.Environ(), env...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, fmt.Errorf("stdout pipe: %w", err)
	}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, fmt.Errorf("stderr pipe: %w", err)
	}
	p := &proc{
		cmd:       cmd,
		firstLine: make(chan struct{}),
		marked:    make(chan struct{}),
		done:      make(chan struct{}),
	}
	p.start = time.Now()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	//lint:allow rawgo pipe readers and their joiner for one child process; wait joins them
	go func() {
		defer wg.Done()
		p.readStdout(stdout)
	}()
	//lint:allow rawgo pipe readers and their joiner for one child process; wait joins them
	go func() {
		defer wg.Done()
		p.readStderr(stderr, mark)
	}()
	//lint:allow rawgo pipe readers and their joiner for one child process; wait joins them
	go func() {
		wg.Wait()
		close(p.done)
	}()
	//lint:allow rawgo peak-memory sampler for one child process; ends with it
	go p.sampleHWM()
	return p, nil
}

// sampleHWM polls the child's VmHWM until its pipes close. The rusage
// maxrss of a child is no use here: it also counts the benchmark's own
// pages at fork time.
func (p *proc) sampleHWM() {
	path := fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid)
	t := time.NewTicker(20 * time.Millisecond)
	defer t.Stop()
	for {
		if b, err := os.ReadFile(path); err == nil {
			for _, line := range strings.Split(string(b), "\n") {
				if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
					n, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 10, 64)
					p.mu.Lock()
					p.hwmKiB = max(p.hwmKiB, n)
					p.mu.Unlock()
				}
			}
		}
		select {
		case <-p.done:
			return
		case <-t.C:
		}
	}
}

func (p *proc) readStdout(r io.Reader) {
	br := bufio.NewReaderSize(r, 1<<16)
	first := true
	for {
		line, err := br.ReadBytes('\n')
		if len(line) > 0 {
			now := time.Now()
			p.mu.Lock()
			p.stdout.Write(line)
			if first {
				p.firstLineAt = now
			}
			p.mu.Unlock()
			if first {
				first = false
				close(p.firstLine)
			}
		}
		if err != nil {
			p.mu.Lock()
			p.eofAt = time.Now()
			p.mu.Unlock()
			return
		}
	}
}

func (p *proc) readStderr(r io.Reader, mark string) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	marked := mark == ""
	for sc.Scan() {
		line := sc.Text()
		now := time.Now()
		p.mu.Lock()
		if strings.HasPrefix(line, "gc ") {
			p.gcLines = append(p.gcLines, line)
		} else {
			p.stderrTail = append(p.stderrTail, line)
			if len(p.stderrTail) > 20 {
				p.stderrTail = p.stderrTail[1:]
			}
		}
		if !marked && strings.Contains(line, mark) {
			p.markAt = now
		}
		p.mu.Unlock()
		if !marked && strings.Contains(line, mark) {
			marked = true
			close(p.marked)
		}
	}
	// Drain anything past an over-long line so the child never blocks.
	_, _ = io.Copy(io.Discard, r)
}

// signal sends sig to the process (errors mean it already exited).
func (p *proc) signal(sig os.Signal) { _ = p.cmd.Process.Signal(sig) }

// wait reaps the process and collects its result. A process the
// benchmark killed itself reports no error.
func (p *proc) wait(killed bool) procResult {
	<-p.done
	err := p.cmd.Wait()
	p.mu.Lock()
	defer p.mu.Unlock()
	res := procResult{
		Stdout:    append([]byte(nil), p.stdout.Bytes()...),
		Start:     p.start,
		FirstLine: p.firstLineAt,
		Mark:      p.markAt,
		EOF:       p.eofAt,
		MaxRSSMiB: float64(p.hwmKiB) / 1024,
	}
	if st := p.cmd.ProcessState; st != nil {
		res.CPU = st.UserTime() + st.SystemTime()
	}
	res.GCCycles, res.GCPauseMs = parseGCTrace(p.gcLines)
	if err != nil && !killed {
		res.Err = fmt.Errorf("%s exited: %v; stderr tail:\n%s", p.cmd.Path, err, strings.Join(p.stderrTail, "\n"))
	}
	return res
}

// kill stops the process at once and reaps it.
func (p *proc) kill() procResult {
	_ = p.cmd.Process.Kill()
	return p.wait(true)
}

// parseGCTrace sums the stop-the-world pauses of GODEBUG=gctrace=1
// lines: "gc N @Ts P%: A+B+C ms clock, ..." where A and C are the two
// pauses and B the concurrent phase.
func parseGCTrace(lines []string) (cycles int, pauseMs float64) {
	for _, line := range lines {
		colon := strings.Index(line, ": ")
		clock := strings.Index(line, " ms clock")
		if colon < 0 || clock < colon {
			continue
		}
		parts := strings.Split(line[colon+2:clock], "+")
		if len(parts) != 3 {
			continue
		}
		a, errA := strconv.ParseFloat(parts[0], 64)
		c, errC := strconv.ParseFloat(parts[2], 64)
		if errA != nil || errC != nil {
			continue
		}
		cycles++
		pauseMs += a + c
	}
	return cycles, pauseMs
}
