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

// TestCLIServe boots the service on an ephemeral port and round-trips a
// validate request through it.
func TestCLIServe(t *testing.T) {
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0"}, &buf)
	}()

	// Wait for the listen line to learn the port.
	var url string
	for i := 0; i < 200 && url == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		if line := buf.String(); strings.Contains(line, "http://") {
			rest := line[strings.Index(line, "http://"):]
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				rest = rest[:nl]
			}
			url = strings.TrimSpace(rest)
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
	}
	if url == "" {
		t.Fatal("server did not announce its address")
	}
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
	// The server goroutine keeps serving; the test binary tears it down on
	// exit (the listener is bound to an ephemeral port owned by this test).
}

// TestCLIDistributedSweep drives the whole distributed surface through the
// CLI: a `serve -worker` peer on an ephemeral port, then `sweep -paper
// -distributed -workers-urls=...`, which embeds a coordinator, attaches the
// worker, and must print the same outcome table as the local paper sweep.
func TestCLIDistributedSweep(t *testing.T) {
	var buf syncBuffer
	done := make(chan error, 1)
	go func() {
		done <- run([]string{"serve", "-addr", "127.0.0.1:0", "-quiet",
			"-worker", "-worker-name", "cli-test", "-poll", "2ms"}, &buf)
	}()
	var url string
	for i := 0; i < 200 && url == ""; i++ {
		time.Sleep(10 * time.Millisecond)
		if line := buf.String(); strings.Contains(line, "http://") {
			rest := line[strings.Index(line, "http://"):]
			if nl := strings.IndexByte(rest, '\n'); nl >= 0 {
				rest = rest[:nl]
			}
			url = strings.TrimSpace(rest)
		}
		select {
		case err := <-done:
			t.Fatalf("serve exited early: %v", err)
		default:
		}
	}
	if url == "" {
		t.Fatal("worker did not announce its address")
	}

	var out bytes.Buffer
	if err := run([]string{"sweep", "-paper", "-distributed", "-workers-urls", url}, &out); err != nil {
		t.Fatalf("distributed sweep: %v\n%s", err, out.String())
	}
	got := out.String()
	// The verdict lines must be byte-for-byte what the local `sweep -paper`
	// prints (9 undetected, 136 localized-correct on Figure 1).
	for _, want := range []string{
		"attached worker " + url,
		"swept 145 mutants",
		"undetected:                9",
		"localized-correct:         136",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("distributed sweep output missing %q:\n%s", want, got)
		}
	}
}
