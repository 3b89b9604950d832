package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/jobs"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
)

func get(t *testing.T, srv *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", path, err)
	}
	return resp, body
}

// newJobsService builds a full service with the batch surface enabled.
func newJobsService(t *testing.T, cfg Config) (*Service, *httptest.Server) {
	t.Helper()
	cfg.EnableJobs = true
	svc, err := NewService(cfg)
	if err != nil {
		t.Fatalf("NewService: %v", err)
	}
	srv := httptest.NewServer(svc.Handler())
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = svc.Close(ctx)
	})
	return svc, srv
}

// pollJob polls a job's status endpoint until it is terminal.
func pollJob(t *testing.T, srv *httptest.Server, id string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, body := get(t, srv, "/v1/jobs/"+id)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll %s: status %d: %s", id, resp.StatusCode, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("poll %s: decode: %v", id, err)
		}
		if jobs.State(v.State).Terminal() {
			return v
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never terminal (last state %s)", id, v.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestJobsDiagnoseMatchesSync is the core parity claim: a diagnose job
// submitted through the queue reaches the same verdict as the synchronous
// /v1/diagnose path, and a duplicate submission is answered from the cache.
func TestJobsDiagnoseMatchesSync(t *testing.T) {
	reg := obs.New()
	_, srv := newJobsService(t, Config{Registry: reg, JobsWorkers: 2})

	spec := systemDoc(t, paper.MustFigure1())
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	diagReq := diagnoseRequest{Spec: spec, IUT: systemDoc(t, iut), Suite: cfsm.EncodeSuite(paper.TestSuite())}

	// Synchronous reference verdict.
	resp, body := post(t, srv, "/v1/diagnose", diagReq)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sync diagnose: %d: %s", resp.StatusCode, body)
	}
	var sync diagnoseResponse
	if err := json.Unmarshal(body, &sync); err != nil {
		t.Fatal(err)
	}

	// The same request through the queue.
	reqDoc, err := json.Marshal(diagReq)
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, srv, "/v1/jobs", jobSubmitRequest{Kind: "diagnose", Request: reqDoc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, srv, accepted.ID)
	if final.State != string(jobs.StateSucceeded) {
		t.Fatalf("job state = %s, error = %q", final.State, final.Error)
	}

	resp, body = get(t, srv, "/v1/jobs/"+accepted.ID+"/result")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: %d: %s", resp.StatusCode, body)
	}
	var res jobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	var async diagnoseResponse
	if err := json.Unmarshal(res.Result, &async); err != nil {
		t.Fatalf("decode job result: %v", err)
	}
	if async.Verdict != sync.Verdict || async.Fault != sync.Fault {
		t.Fatalf("job verdict %q/%q != sync verdict %q/%q",
			async.Verdict, async.Fault, sync.Verdict, sync.Fault)
	}

	// A duplicate submission — even with different key order — short-
	// circuits through the content-addressed cache with 200.
	resp, body = post(t, srv, "/v1/jobs", jobSubmitRequest{Kind: "diagnose", Request: reqDoc})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("duplicate submit: %d: %s", resp.StatusCode, body)
	}
	var dup jobView
	if err := json.Unmarshal(body, &dup); err != nil {
		t.Fatal(err)
	}
	if !dup.Cached || dup.State != string(jobs.StateSucceeded) {
		t.Fatalf("duplicate not served from cache: %+v", dup)
	}

	// List and stats reflect both submissions.
	resp, body = get(t, srv, "/v1/jobs")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("list: %d: %s", resp.StatusCode, body)
	}
	var list struct {
		Jobs  []jobView  `json:"jobs"`
		Stats jobs.Stats `json:"stats"`
	}
	if err := json.Unmarshal(body, &list); err != nil {
		t.Fatal(err)
	}
	if len(list.Jobs) != 2 || list.Stats.CacheHits != 1 {
		t.Fatalf("list = %d jobs, stats = %+v", len(list.Jobs), list.Stats)
	}

	// The jobs metric families reach /metrics.
	_, body = get(t, srv, "/metrics")
	for _, family := range []string{
		"cfsmdiag_jobs_queue_depth", "cfsmdiag_jobs_wait_seconds_bucket",
		"cfsmdiag_jobs_run_seconds_bucket", "cfsmdiag_jobs_cache_hits_total",
	} {
		if !strings.Contains(string(body), family) {
			t.Errorf("/metrics missing %s", family)
		}
	}
}

// TestJobsSweep runs a sweep job end to end through the queue.
func TestJobsSweep(t *testing.T) {
	_, srv := newJobsService(t, Config{JobsWorkers: 2})

	reqDoc, err := json.Marshal(sweepJobRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, srv, "/v1/jobs",
		jobSubmitRequest{Kind: "sweep", Priority: "interactive", Request: reqDoc})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d: %s", resp.StatusCode, body)
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, srv, accepted.ID)
	if final.State != string(jobs.StateSucceeded) {
		t.Fatalf("sweep job state = %s, error = %q", final.State, final.Error)
	}
	_, body = get(t, srv, "/v1/jobs/"+accepted.ID+"/result")
	var res jobResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	var sweep sweepJobResponse
	if err := json.Unmarshal(res.Result, &sweep); err != nil {
		t.Fatal(err)
	}
	if sweep.Mutants == 0 || sweep.Detected == 0 {
		t.Fatalf("sweep result = %+v", sweep)
	}
}

// TestJobsErrorSurface pins the HTTP mappings of the queue's error space.
func TestJobsErrorSurface(t *testing.T) {
	_, srv := newJobsService(t, Config{JobsWorkers: 1})

	// Unknown kind.
	resp, body := post(t, srv, "/v1/jobs",
		jobSubmitRequest{Kind: "nope", Request: json.RawMessage(`{}`)})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown kind: %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeBadRequest {
		t.Fatalf("unknown kind code = %s", env.Error.Code)
	}

	// Missing request document.
	resp, body = post(t, srv, "/v1/jobs", jobSubmitRequest{Kind: "diagnose"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing request: %d: %s", resp.StatusCode, body)
	}

	// Unknown job.
	resp, body = get(t, srv, "/v1/jobs/j999")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job: %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeNotFound {
		t.Fatalf("unknown job code = %s", env.Error.Code)
	}

	// A failing job records its error; its result endpoint still answers.
	bad, err := json.Marshal(diagnoseRequest{}) // empty spec fails decode
	if err != nil {
		t.Fatal(err)
	}
	resp, body = post(t, srv, "/v1/jobs", jobSubmitRequest{Kind: "diagnose", Request: bad})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit failing job: %d: %s", resp.StatusCode, body)
	}
	var accepted jobView
	if err := json.Unmarshal(body, &accepted); err != nil {
		t.Fatal(err)
	}
	final := pollJob(t, srv, accepted.ID)
	if final.State != string(jobs.StateFailed) || final.Error == "" {
		t.Fatalf("failing job = %+v", final)
	}
}

// TestJobsAdmissionControl429: a saturated queue answers 429 with a
// Retry-After estimate. Uses a hand-built service so the executor can be
// held open deterministically.
func TestJobsAdmissionControl429(t *testing.T) {
	cfg := Config{}.withDefaults()
	s := &api{cfg: cfg, m: newHTTPMetrics(cfg.Registry)}
	gate := make(chan struct{})
	mgr, err := jobs.Open(jobs.Config{Workers: 1, QueueDepth: 1},
		map[string]jobs.Executor{"block": func(ctx context.Context, _ json.RawMessage) (json.RawMessage, error) {
			select {
			case <-gate:
				return json.RawMessage(`true`), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		close(gate)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	}()
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", s.wrap("/v1/jobs", s.handleJobs(mgr)))
	mux.Handle("/v1/jobs/", s.wrap("/v1/jobs/{id}", s.handleJob(mgr)))
	srv := httptest.NewServer(mux)
	defer srv.Close()

	submit := func(n int) (*http.Response, []byte) {
		return post(t, srv, "/v1/jobs", jobSubmitRequest{
			Kind: "block", Request: json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))})
	}
	resp, body := submit(1)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d: %s", resp.StatusCode, body)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}
	if resp, body = submit(2); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d: %s", resp.StatusCode, body)
	}
	resp, body = submit(3)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-depth submit: %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeQueueFull {
		t.Fatalf("over-depth code = %s", env.Error.Code)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
}

// TestServiceGracefulShutdownDrains is the shutdown contract end to end:
// in-flight jobs drain to completion, queued jobs persist to the WAL, and a
// restarted service replays them exactly once — no loss, no duplication.
func TestServiceGracefulShutdownDrains(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{}.withDefaults()
	s := &api{cfg: cfg, m: newHTTPMetrics(cfg.Registry)}

	gate := make(chan struct{})
	var mu sync.Mutex
	runs := make(map[string]int)
	exec := func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		select {
		case <-gate:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		mu.Lock()
		runs[string(payload)]++
		mu.Unlock()
		return json.RawMessage(`"done"`), nil
	}
	mgr, err := jobs.Open(jobs.Config{Workers: 1, Dir: dir},
		map[string]jobs.Executor{"work": exec})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/v1/jobs", s.wrap("/v1/jobs", s.handleJobs(mgr)))
	mux.Handle("/v1/jobs/", s.wrap("/v1/jobs/{id}", s.handleJob(mgr)))
	svc := &Service{handler: mux, mgr: mgr}
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	var ids []string
	for n := 1; n <= 3; n++ {
		resp, body := post(t, srv, "/v1/jobs", jobSubmitRequest{
			Kind: "work", Request: json.RawMessage(fmt.Sprintf(`{"n":%d}`, n))})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", n, resp.StatusCode, body)
		}
		var v jobView
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, v.ID)
	}
	deadline := time.Now().Add(10 * time.Second)
	for mgr.Stats().Running != 1 {
		if time.Now().After(deadline) {
			t.Fatal("first job never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Graceful shutdown: release the in-flight job shortly after the drain
	// begins; it must complete, while the two queued jobs stay queued.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	j, err := mgr.Get(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if j.State != jobs.StateSucceeded {
		t.Fatalf("in-flight job after drain = %s, want succeeded", j.State)
	}
	for _, id := range ids[1:] {
		j, err := mgr.Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if j.State != jobs.StateQueued {
			t.Fatalf("queued job %s after drain = %s, want queued", id, j.State)
		}
	}

	// Restart over the same directory with an ungated executor: the two
	// queued jobs replay exactly once, the completed one never re-runs.
	free := func(_ context.Context, payload json.RawMessage) (json.RawMessage, error) {
		mu.Lock()
		runs[string(payload)]++
		mu.Unlock()
		return json.RawMessage(`"done"`), nil
	}
	mgr2, err := jobs.Open(jobs.Config{Workers: 1, Dir: dir},
		map[string]jobs.Executor{"work": free})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = mgr2.Close(ctx)
	}()
	if got := mgr2.Stats().Replayed; got != 2 {
		t.Fatalf("replayed = %d, want 2", got)
	}
	wctx, wcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer wcancel()
	if err := mgr2.WaitIdle(wctx); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		j, err := mgr2.Get(id)
		if err != nil {
			t.Fatalf("job %s lost across restart: %v", id, err)
		}
		if j.State != jobs.StateSucceeded {
			t.Fatalf("job %s after restart = %s, want succeeded", id, j.State)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	for p, c := range runs {
		if c != 1 {
			t.Errorf("payload %s ran %d times, want exactly once", p, c)
		}
	}
	if len(runs) != 3 {
		t.Errorf("%d payloads ran, want 3", len(runs))
	}
}

// TestJobsListPagination: GET /v1/jobs returns a stable order (submit time,
// then id) across repeated calls, honors ?limit=/?offset= windows and the
// ?state= filter, and rejects malformed paging.
func TestJobsListPagination(t *testing.T) {
	_, srv := newJobsService(t, Config{JobsWorkers: 1})

	spec := systemDoc(t, paper.MustFigure1())
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 5; i++ {
		// Distinct MaxAdditionalTests keeps each payload out of the
		// content-addressed duplicate cache.
		reqDoc, err := json.Marshal(diagnoseRequest{
			Spec: spec, IUT: systemDoc(t, iut), Suite: cfsm.EncodeSuite(paper.TestSuite()),
			MaxAdditionalTests: i + 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		resp, body := post(t, srv, "/v1/jobs", jobSubmitRequest{Kind: "diagnose", Request: reqDoc})
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: %d: %s", i, resp.StatusCode, body)
		}
		var accepted jobView
		if err := json.Unmarshal(body, &accepted); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, accepted.ID)
	}

	type listDoc struct {
		Jobs  []jobView `json:"jobs"`
		Total int       `json:"total"`
	}
	decodeList := func(path string) listDoc {
		resp, body := get(t, srv, path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: %d: %s", path, resp.StatusCode, body)
		}
		var doc listDoc
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		return doc
	}

	// Stable ordering regression: repeated listings come back in submit
	// order every time, never map order.
	for round := 0; round < 3; round++ {
		doc := decodeList("/v1/jobs")
		if doc.Total != 5 || len(doc.Jobs) != 5 {
			t.Fatalf("round %d: total=%d jobs=%d", round, doc.Total, len(doc.Jobs))
		}
		for i, j := range doc.Jobs {
			if j.ID != ids[i] {
				t.Fatalf("round %d: jobs[%d] = %s, want %s", round, i, j.ID, ids[i])
			}
		}
	}

	// Pagination windows.
	if doc := decodeList("/v1/jobs?limit=2"); len(doc.Jobs) != 2 || doc.Total != 5 ||
		doc.Jobs[0].ID != ids[0] || doc.Jobs[1].ID != ids[1] {
		t.Fatalf("limit=2: %+v", doc)
	}
	if doc := decodeList("/v1/jobs?limit=2&offset=3"); len(doc.Jobs) != 2 ||
		doc.Jobs[0].ID != ids[3] || doc.Jobs[1].ID != ids[4] {
		t.Fatalf("limit=2&offset=3: %+v", doc)
	}
	if doc := decodeList("/v1/jobs?offset=99"); len(doc.Jobs) != 0 || doc.Total != 5 {
		t.Fatalf("offset past the end: %+v", doc)
	}

	// State filter: once everything is terminal, succeeded matches all and
	// queued matches none.
	for _, id := range ids {
		pollJob(t, srv, id)
	}
	if doc := decodeList("/v1/jobs?state=succeeded"); doc.Total != 5 {
		t.Fatalf("state=succeeded total = %d", doc.Total)
	}
	if doc := decodeList("/v1/jobs?state=queued"); doc.Total != 0 {
		t.Fatalf("state=queued total = %d", doc.Total)
	}

	// Malformed paging and unknown states are 400s.
	for _, q := range []string{"?limit=0", "?limit=-1", "?offset=-2", "?state=bogus"} {
		resp, _ := get(t, srv, "/v1/jobs"+q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET /v1/jobs%s: status %d, want 400", q, resp.StatusCode)
		}
	}
}

func grepLines(text, needle string) string {
	var sb strings.Builder
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, needle) {
			sb.WriteString(line)
			sb.WriteString("\n")
		}
	}
	return sb.String()
}

// TestRetryAfterNeverZero pins the Retry-After arithmetic on both 429
// taxonomies: a sub-second wait must not truncate to "Retry-After: 0"
// (which clients read as "retry immediately" — the stampede the header
// exists to prevent), and waits round up, never down.
func TestRetryAfterNeverZero(t *testing.T) {
	mgr, err := jobs.Open(jobs.Config{Workers: 1, QueueDepth: 1},
		map[string]jobs.Executor{"noop": func(context.Context, json.RawMessage) (json.RawMessage, error) {
			return json.RawMessage(`true`), nil
		}})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = mgr.Close(ctx)
	}()

	for _, tc := range []struct {
		name     string
		err      error
		wantCode string
		wantRA   string
	}{
		// The tenant bucket currently clamps its own wait to >= 1s, but the
		// HTTP layer must not rely on producers: a raw sub-second refill
		// estimate truncated to seconds is exactly the zero-second family.
		{"tenant sub-second", &jobs.RateLimitError{Tenant: "t1", RetryAfter: 250 * time.Millisecond}, codeTenantRateLimited, "1"},
		{"tenant rounds up", &jobs.RateLimitError{Tenant: "t1", RetryAfter: 1500 * time.Millisecond}, codeTenantRateLimited, "2"},
		{"tenant zero", &jobs.RateLimitError{Tenant: "t1", RetryAfter: 0}, codeTenantRateLimited, "1"},
		{"queue full", jobs.ErrQueueFull, codeQueueFull, "1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			writeJobsErr(rec, mgr, tc.err)
			if rec.Code != http.StatusTooManyRequests {
				t.Fatalf("status = %d, want 429", rec.Code)
			}
			if env := decodeEnvelope(t, rec.Body.Bytes()); env.Error.Code != tc.wantCode {
				t.Fatalf("code = %s, want %s", env.Error.Code, tc.wantCode)
			}
			if got := rec.Header().Get("Retry-After"); got != tc.wantRA {
				t.Errorf("Retry-After = %q, want %q", got, tc.wantRA)
			}
		})
	}
}
