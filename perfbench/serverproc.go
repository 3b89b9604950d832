package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// serverProc is a `cfsmdiag serve` process on a loopback port.
type serverProc struct {
	cmd    *exec.Cmd
	url    string
	exited chan struct{} // closed once Wait has returned
}

// startServer launches the server with its defaults (access logs off) and
// returns once it has announced its address.
func startServer(bin string) (*serverProc, error) {
	cmd := exec.Command(bin, "serve", "-addr", "127.0.0.1:0", "-quiet")
	cmd.Stderr = os.Stderr
	// If the benchmark dies, the kernel kills the server too.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	p := &serverProc{cmd: cmd, exited: make(chan struct{})}
	lines := bufio.NewScanner(stdout)
	const banner = "listening on "
	for lines.Scan() {
		if i := strings.Index(lines.Text(), banner); i >= 0 {
			p.url = strings.TrimSpace(lines.Text()[i+len(banner):])
			break
		}
	}
	// Keep draining stdout so the server never blocks on a full pipe; Wait
	// may only run after the reads are done.
	go func() {
		_, _ = io.Copy(io.Discard, stdout)
		_ = cmd.Wait()
		close(p.exited)
	}()
	if p.url == "" {
		p.stop()
		return nil, fmt.Errorf("server exited before announcing its address")
	}
	return p, nil
}

// stop terminates the server and waits until it has exited.
func (p *serverProc) stop() {
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.exited:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.exited
	}
}

// rssMB reads a process's resident set size from /proc in MiB.
func rssMB(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 3 && f[0] == "VmRSS:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmRSS in /proc/%d/status", pid)
}

// cpuSeconds reads a process's user plus system CPU time, over all its
// threads, from /proc. On a virtual machine, time the hypervisor gives to
// other guests (steal) is not charged to the process.
func cpuSeconds(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name is in parentheses and may hold spaces; utime and
	// stime are the 12th and 13th fields after it, in clock ticks of 1/100 s
	// (USER_HZ).
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("/proc/%d/stat: %d fields after the name", pid, len(f))
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%d/stat: %w", pid, err)
		}
		ticks += v
	}
	return ticks / 100, nil
}

// rssSampler reads a process's resident set size ten times a second. The
// peak (VmHWM) swings by a tenth between runs with the garbage collector's
// timing; the median of the samples does not.
type rssSampler struct {
	stop    chan struct{}
	done    chan struct{}
	samples []float64
}

func sampleRSS(pid int) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(100 * time.Millisecond)
		defer tick.Stop()
		for {
			if mb, err := rssMB(pid); err == nil {
				s.samples = append(s.samples, mb)
			}
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median sample in MiB.
func (s *rssSampler) finish() float64 {
	close(s.stop)
	<-s.done
	return median(s.samples)
}

// Server counters the benchmark reads from /metrics.
const (
	metricRegistryHits   = "cfsmdiag_model_registry_hits_total"
	metricRegistryMisses = "cfsmdiag_model_registry_misses_total"
	metricOracleQueries  = "cfsmdiag_oracle_queries_total"
	metricInterleavings  = "cfsmdiag_ports_interleavings_explored_total"
	// The middleware's latency histogram, summed over routes.
	metricHTTPLatencySum   = "cfsmdiag_http_request_duration_seconds_sum"
	metricHTTPLatencyCount = "cfsmdiag_http_request_duration_seconds_count"
)

// scrape reads /metrics and sums every series of each family.
func scrape(url string) (map[string]float64, error) {
	c := &http.Client{Timeout: 10 * time.Second}
	resp, err := c.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseMetrics(resp.Body)
}

// parseMetrics sums a Prometheus text exposition by family name.
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64)
	lines := bufio.NewScanner(r)
	for lines.Scan() {
		line := lines.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", line, err)
		}
		out[name] += v
	}
	return out, lines.Err()
}
