package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/paper"
)

// syncBuffer is a race-safe writer shared between the server goroutine and
// the polling test.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buf.String()
}

// startServe runs `serve -addr 127.0.0.1:0` plus args in a goroutine and
// returns the address it announces and its output. The server keeps
// serving; the test binary tears it down on exit (the listener is bound to
// an ephemeral port owned by the test).
func startServe(t *testing.T, args ...string) (string, *syncBuffer) {
	t.Helper()
	buf := new(syncBuffer)
	done := make(chan error, 1)
	go func() {
		done <- run(append([]string{"serve", "-addr", "127.0.0.1:0"}, args...), buf)
	}()
	for i := 0; i < 200; i++ {
		time.Sleep(10 * time.Millisecond)
		if line := buf.String(); strings.Contains(line, "http://") {
			rest := line[strings.Index(line, "http://"):]
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				rest = rest[:nl]
			}
			return strings.TrimSpace(rest), buf
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
	}
	t.Fatal("serve did not announce its address")
	return "", nil
}

// TestCLIServe boots the service on an ephemeral port and round-trips a
// validate request through it.
func TestCLIServe(t *testing.T) {
	url, buf := startServe(t)
	// The startup banner lists the routes and the pprof/tracing state.
	banner := buf.String()
	for _, want := range []string{"routes: POST /v1/validate", "POST /v1/diagnose", "GET /metrics", "pprof: false", "tracing (?trace=1): true"} {
		if !strings.Contains(banner, want) {
			t.Errorf("startup banner missing %q:\n%s", want, banner)
		}
	}

	data, err := paper.MustFigure1().MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	body := fmt.Sprintf(`{"spec": %s}`, data)
	resp, err := http.Post(url+"/v1/validate", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(out), `"machines":3`) {
		t.Fatalf("status %d body %s", resp.StatusCode, out)
	}
}

// outcomeLines keeps the lines of a sweep's output that state its outcome:
// the per-class counts and the adaptive cost, not the timing line.
func outcomeLines(out string) string {
	var b strings.Builder
	for _, line := range strings.SplitAfter(out, "\n") {
		if strings.HasPrefix(line, "  ") || strings.HasPrefix(line, "adaptive") {
			b.WriteString(line)
		}
	}
	return b.String()
}

// TestCLIDistributedSweep drives the whole distributed surface through the
// CLI: two `serve -worker` peers on ephemeral ports, then `sweep -paper
// -distributed -workers-urls=...`, which embeds a coordinator, attaches both
// workers, and must print the same outcome lines as the local paper sweep.
func TestCLIDistributedSweep(t *testing.T) {
	url1, _ := startServe(t, "-quiet", "-worker", "-worker-name", "cli-w1", "-poll", "2ms")
	url2, _ := startServe(t, "-quiet", "-worker", "-worker-name", "cli-w2", "-poll", "2ms")

	local, err := runCLI(t, "sweep", "-paper")
	if err != nil {
		t.Fatalf("local sweep: %v\n%s", err, local)
	}
	got, err := runCLI(t, "sweep", "-paper", "-distributed", "-workers-urls", url1+","+url2)
	if err != nil {
		t.Fatalf("distributed sweep: %v\n%s", err, got)
	}
	for _, want := range []string{"attached worker " + url1, "attached worker " + url2, "swept 145 mutants"} {
		if !strings.Contains(got, want) {
			t.Errorf("distributed sweep output missing %q:\n%s", want, got)
		}
	}
	// The outcome lines must be byte-for-byte the local sweep's (9
	// undetected, 136 localized-correct on Figure 1).
	want := outcomeLines(local)
	for _, count := range []string{"undetected:                9", "localized-correct:         136"} {
		if !strings.Contains(want, count) {
			t.Fatalf("local sweep outcome missing %q:\n%s", count, want)
		}
	}
	if d := outcomeLines(got); d != want {
		t.Errorf("distributed outcome lines differ from the local sweep:\n%s\nwant:\n%s", d, want)
	}
}
