package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// The load generator: one process, at most nproc keep-alive connections,
// each owned by one goroutine. The open loop times every request from the
// moment it was due, so a stall is charged to every request it delays.

// sample is one request's timeline, as offsets from its phase's start.
type sample struct {
	req        request
	due        time.Duration // scheduled send (open loop); zero in a closed loop
	dispatched time.Duration // handed to the connection queue
	sent       time.Duration // taken by a connection
	done       time.Duration // response fully read
	status     int
	body       []byte
	err        error
}

func (s sample) latency() time.Duration   { return s.done - s.due }
func (s sample) lateness() time.Duration  { return s.dispatched - s.due }
func (s sample) connWait() time.Duration  { return s.sent - s.dispatched }
func (s sample) roundTrip() time.Duration { return s.done - s.sent }

// conn is one keep-alive HTTP/1.1 connection. The request is written and
// the response read on the calling goroutine, so the generator adds no
// goroutine hand-offs of its own to a round trip (net/http's client passes
// every request through two connection goroutines).
type conn struct {
	addr string // host:port
	nc   net.Conn
	br   *bufio.Reader
	hdr  []byte
}

// newConns returns n connections to the server at url; each dials on first
// use.
func newConns(url string, n int) []*conn {
	out := make([]*conn, n)
	for i := range out {
		out[i] = &conn{addr: strings.TrimPrefix(url, "http://")}
	}
	return out
}

func closeConns(conns []*conn) {
	for _, c := range conns {
		c.close()
	}
}

func (c *conn) close() {
	if c.nc != nil {
		c.nc.Close()
		c.nc = nil
	}
}

// post sends one diagnosis request and reads the whole response. Any error
// drops the connection; the next request dials a new one.
func (c *conn) post(body []byte) (int, []byte, error) {
	if c.nc == nil {
		nc, err := net.Dial("tcp", c.addr)
		if err != nil {
			return 0, nil, err
		}
		c.nc, c.br = nc, bufio.NewReaderSize(nc, 64<<10)
	}
	if err := c.nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		c.close()
		return 0, nil, err
	}
	c.hdr = fmt.Appendf(c.hdr[:0], "POST /v1/diagnose HTTP/1.1\r\nHost: %s\r\nContent-Type: application/json\r\nContent-Length: %d\r\n\r\n", c.addr, len(body))
	bufs := net.Buffers{c.hdr, body}
	if _, err := bufs.WriteTo(c.nc); err != nil {
		c.close()
		return 0, nil, fmt.Errorf("write request: %w", err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		c.close()
		return 0, nil, fmt.Errorf("read response: %w", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.Close {
		c.close()
	}
	if err != nil {
		return resp.StatusCode, nil, fmt.Errorf("read response: %w", err)
	}
	return resp.StatusCode, b, nil
}

// openLoop sends every arrival at its due time and waits for all responses.
func openLoop(conns []*conn, s *stream, arrivals []arrival) []sample {
	samples := make([]sample, len(arrivals))
	// Sized to the number of sends, so the scheduler never blocks on a busy
	// connection: a due request waits in the queue, and that wait is
	// measured as connection wait.
	queue := make(chan int, len(arrivals))
	start := time.Now()
	var wg sync.WaitGroup
	for _, c := range conns {
		wg.Add(1)
		go func(c *conn) {
			defer wg.Done()
			for i := range queue {
				smp := &samples[i]
				smp.sent = time.Since(start)
				smp.status, smp.body, smp.err = c.post(s.bodies[smp.req])
				smp.done = time.Since(start)
			}
		}(c)
	}
	for i, a := range arrivals {
		sleepUntil(start.Add(a.due))
		samples[i].req = a.req
		samples[i].due = a.due
		samples[i].dispatched = time.Since(start)
		queue <- i
	}
	close(queue)
	wg.Wait()
	return samples
}

// closedLoop keeps every connection busy with back-to-back requests from
// s.closed, starting at the cursor, until d has passed, and returns the
// completed samples.
func closedLoop(conns []*conn, s *stream, next *atomic.Int64, d time.Duration) []sample {
	per := make([][]sample, len(conns))
	start := time.Now()
	var wg sync.WaitGroup
	for k, c := range conns {
		wg.Add(1)
		go func(k int, c *conn) {
			defer wg.Done()
			for {
				sent := time.Since(start)
				if sent >= d {
					return
				}
				req := s.closed[int(next.Add(1)-1)%len(s.closed)]
				smp := sample{req: req, dispatched: sent, sent: sent}
				smp.status, smp.body, smp.err = c.post(s.bodies[req])
				smp.done = time.Since(start)
				per[k] = append(per[k], smp)
			}
		}(k, c)
	}
	wg.Wait()
	var out []sample
	for _, ss := range per {
		out = append(out, ss...)
	}
	return out
}

// shift moves a sample's timeline later by d.
func (s *sample) shift(d time.Duration) {
	s.due += d
	s.dispatched += d
	s.sent += d
	s.done += d
}

// sleepUntil blocks until t in nanosleep. time.Sleep wakes up to a
// millisecond late when the process is otherwise idle, which at these
// rates would make generator lateness a large part of every latency.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps again
	}
}
