package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cfsmdiag/internal/server"
)

// isStatusPoll matches GET /v1/jobs/{id} exactly, the status route.
// The result fetch (/result suffix) and the events route are not polls.
func isStatusPoll(r *http.Request) bool {
	if r.Method != http.MethodGet {
		return false
	}
	rest, ok := strings.CutPrefix(r.URL.Path, "/v1/jobs/")
	return ok && rest != "" && !strings.Contains(rest, "/")
}

// newWatchServer boots the jobs service behind a counter of status polls.
func newWatchServer(t *testing.T) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	svc, err := server.NewService(server.Config{
		EnableJobs:  true,
		JobsDir:     t.TempDir(),
		JobsWorkers: 1,
	})
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		svc.Close(ctx)
	})
	polls := new(atomic.Int64)
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if isStatusPoll(r) {
			polls.Add(1)
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return srv, polls
}

func submitPaperJob(t *testing.T, baseURL string) string {
	t.Helper()
	request, err := buildJobRequest("diagnose", true, "", "", "")
	if err != nil {
		t.Fatalf("buildJobRequest: %v", err)
	}
	body, _ := json.Marshal(map[string]any{"kind": "diagnose", "request": request})
	var j jobDoc
	if err := jobsCall(http.MethodPost, baseURL+"/v1/jobs", body, &j); err != nil {
		t.Fatalf("submit: %v", err)
	}
	return j.ID
}

// TestWatchStreamsWithoutStatusPolls is the acceptance check for the
// streaming rewrite: against a server with the events route, `jobs watch`
// consumes the SSE stream and never polls the status route.
func TestWatchStreamsWithoutStatusPolls(t *testing.T) {
	srv, polls := newWatchServer(t)
	id := submitPaperJob(t, srv.URL)

	var out bytes.Buffer
	if err := watchJob(srv.URL, id, 50*time.Millisecond, &out); err != nil {
		t.Fatalf("watchJob: %v\n%s", err, out.String())
	}
	got := out.String()
	if !strings.Contains(got, "state=succeeded") {
		t.Fatalf("watch did not reach the terminal state:\n%s", got)
	}
	if !strings.Contains(got, `"verdict"`) {
		t.Fatalf("watch did not print the result document:\n%s", got)
	}
	if n := polls.Load(); n != 0 {
		t.Fatalf("watch issued %d status polls against a streaming server, want 0", n)
	}
}

// TestWatchWithoutEventsRouteReportsError fronts the service with a proxy
// that has no events route: the watch must end with the long poll's
// not_found error, without falling back to polling the status route.
func TestWatchWithoutEventsRouteReportsError(t *testing.T) {
	srv, polls := newWatchServer(t)
	noEvents := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/events") {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusNotFound)
			w.Write([]byte(`{"error":{"code":"not_found","message":"unknown route"}}`))
			return
		}
		resp, err := http.Get(srv.URL + r.URL.Path)
		if err != nil {
			w.WriteHeader(http.StatusBadGateway)
			return
		}
		defer resp.Body.Close()
		w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
		w.WriteHeader(resp.StatusCode)
		buf := new(bytes.Buffer)
		buf.ReadFrom(resp.Body)
		w.Write(buf.Bytes())
	}))
	defer noEvents.Close()

	id := submitPaperJob(t, srv.URL)
	var out bytes.Buffer
	err := watchJob(noEvents.URL, id, 20*time.Millisecond, &out)
	if err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Fatalf("err = %v, want the long poll's not_found envelope\n%s", err, out.String())
	}
	if n := polls.Load(); n != 0 {
		t.Fatalf("watch issued %d status polls, want 0", n)
	}
}

// TestWatchUnknownJobReportsNotFound pins the error path: a bogus ID falls
// from the stream to the long poll, which surfaces the server's not_found
// envelope.
func TestWatchUnknownJobReportsNotFound(t *testing.T) {
	srv, _ := newWatchServer(t)
	var out bytes.Buffer
	err := watchJob(srv.URL, "no-such-job", 10*time.Millisecond, &out)
	if err == nil || !strings.Contains(err.Error(), "not_found") {
		t.Fatalf("err = %v, want the not_found envelope surfaced", err)
	}
}
