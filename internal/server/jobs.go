package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/jobs"
	httpapi "cfsmdiag/internal/server/api"
)

// The batch surface mounts the durable job queue (internal/jobs) as
// /v1/jobs:
//
//	POST   /v1/jobs              submit {"kind","priority","tenant","request"} -> 202 job
//	                             (200 when the result cache answers; 429 +
//	                             Retry-After when admission control rejects —
//	                             code queue_full for the shared queue,
//	                             tenant_rate_limited for a per-tenant bucket)
//	GET    /v1/jobs              list job statuses + queue stats
//	GET    /v1/jobs/stats        queue stats only
//	GET    /v1/jobs/{id}         one job's status (no payload/result)
//	GET    /v1/jobs/{id}/result  terminal job incl. result; 409 while live
//	GET    /v1/jobs/{id}/events  lifecycle event stream: SSE when the client
//	                             accepts text/event-stream, long-poll with
//	                             ?wait=<duration>&after=<seq>, plain JSON
//	                             snapshot otherwise (see sse.go)
//	POST   /v1/jobs/{id}/cancel  cancel (DELETE /v1/jobs/{id} is equivalent)
//
// Submissions are content-addressed: the request document is canonicalized
// (sorted keys, preserved number text) before hashing, so retried and
// duplicated submissions with cosmetic differences still share a cache
// entry.

// jobSubmitRequest is the wire form of one submission. Request is the job
// kind's own request document — for "diagnose" the /v1/diagnose body, for
// "sweep" a sweepJobRequest.
type jobSubmitRequest struct {
	Kind     string `json:"kind"`
	Priority string `json:"priority,omitempty"`
	// Tenant attributes the submission for per-tenant fair admission (when
	// the server runs with -jobs-tenant-rate); empty shares the anonymous
	// bucket.
	Tenant  string          `json:"tenant,omitempty"`
	Request json.RawMessage `json:"request"`
}

// jobView is the status wire form: the job without its (possibly large)
// payload and result.
type jobView struct {
	ID         string     `json:"id"`
	Kind       string     `json:"kind"`
	Priority   string     `json:"priority"`
	Tenant     string     `json:"tenant,omitempty"`
	Key        string     `json:"key"`
	State      string     `json:"state"`
	Cached     bool       `json:"cached,omitempty"`
	Attempts   int        `json:"attempts,omitempty"`
	Error      string     `json:"error,omitempty"`
	EnqueuedAt time.Time  `json:"enqueuedAt"`
	StartedAt  *time.Time `json:"startedAt,omitempty"`
	FinishedAt *time.Time `json:"finishedAt,omitempty"`
}

// jobResult is the result wire form: the status view plus the result body.
type jobResult struct {
	jobView
	Result json.RawMessage `json:"result,omitempty"`
}

func viewOf(j *jobs.Job) jobView {
	v := jobView{
		ID: j.ID, Kind: j.Kind, Priority: string(j.Priority), Tenant: j.Tenant,
		Key: j.Key, State: string(j.State), Cached: j.Cached, Attempts: j.Attempts,
		Error: j.Error, EnqueuedAt: j.EnqueuedAt,
	}
	if !j.StartedAt.IsZero() {
		t := j.StartedAt
		v.StartedAt = &t
	}
	if !j.FinishedAt.IsZero() {
		t := j.FinishedAt
		v.FinishedAt = &t
	}
	return v
}

// canonicalJSON re-encodes a JSON document with sorted object keys and
// preserved number text, so semantically identical submissions hash to the
// same content key.
func canonicalJSON(raw json.RawMessage) (json.RawMessage, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v) // encoding/json sorts map keys
}

// strictUnmarshal decodes with unknown fields rejected, mirroring the HTTP
// body decoder for payloads that arrive through the job queue.
func strictUnmarshal(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// writeJobsErr maps job-manager errors onto the envelope.
func writeJobsErr(w http.ResponseWriter, mgr *jobs.Manager, err error) {
	var limited *jobs.RateLimitError
	switch {
	case errors.As(err, &limited):
		// Per-tenant rejection: same 429 as queue_full but a distinct code,
		// and the Retry-After comes from the tenant's own bucket refill, not
		// the shared backlog estimate.
		w.Header().Set("Retry-After", strconv.Itoa(httpapi.RetryAfterSeconds(limited.RetryAfter)))
		writeErr(w, http.StatusTooManyRequests, codeTenantRateLimited, err)
	case errors.Is(err, jobs.ErrQueueFull):
		w.Header().Set("Retry-After", strconv.Itoa(httpapi.RetryAfterSeconds(mgr.Stats().RetryAfter())))
		writeErr(w, http.StatusTooManyRequests, codeQueueFull, err)
	case errors.Is(err, jobs.ErrClosed):
		writeErr(w, http.StatusServiceUnavailable, codeUnavailable, err)
	case errors.Is(err, jobs.ErrUnknownKind):
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
	case errors.Is(err, jobs.ErrNotFound):
		writeErr(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, jobs.ErrTerminal):
		writeErr(w, http.StatusConflict, codeConflict, err)
	default:
		writeErr(w, http.StatusBadRequest, codeBadRequest, err)
	}
}

// handleJobs serves the collection: POST submits, GET lists.
func (s *api) handleJobs(mgr *jobs.Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodPost:
			s.handleJobSubmit(mgr, w, r)
		case http.MethodGet, http.MethodHead:
			page, err := httpapi.ParsePage(r, 100, 1000)
			if err != nil {
				writeErr(w, http.StatusBadRequest, codeBadRequest, err)
				return
			}
			state := jobs.State(r.URL.Query().Get("state"))
			switch state {
			case "", jobs.StateQueued, jobs.StateRunning, jobs.StateSucceeded,
				jobs.StateFailed, jobs.StateCanceled:
			default:
				writeErr(w, http.StatusBadRequest, codeBadRequest,
					fmt.Errorf("unknown state %q", state))
				return
			}
			views := []jobView{}
			for _, j := range mgr.List() {
				if state != "" && j.State != state {
					continue
				}
				views = append(views, viewOf(j))
			}
			total := len(views)
			lo, hi := page.Window(total)
			writeJSON(w, http.StatusOK, map[string]any{
				"jobs":  views[lo:hi],
				"total": total,
				"stats": mgr.Stats(),
			})
		default:
			w.Header().Set("Allow", "GET, POST")
			writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Errorf("/v1/jobs requires GET or POST"))
		}
	}
}

func (s *api) handleJobSubmit(mgr *jobs.Manager, w http.ResponseWriter, r *http.Request) {
	var req jobSubmitRequest
	if !s.decode(w, r, &req) {
		return
	}
	if len(req.Request) == 0 || string(bytes.TrimSpace(req.Request)) == "null" {
		writeErr(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("missing request document"))
		return
	}
	payload, err := canonicalJSON(req.Request)
	if err != nil {
		writeErr(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("request document: %w", err))
		return
	}
	j, err := mgr.Submit(jobs.SubmitRequest{
		Kind:     req.Kind,
		Priority: jobs.Priority(req.Priority),
		Tenant:   req.Tenant,
		Payload:  payload,
	})
	if err != nil {
		writeJobsErr(w, mgr, err)
		return
	}
	s.cfg.Logger.Info("job accepted",
		"request_id", RequestID(r.Context()),
		"job", j.ID, "kind", j.Kind, "priority", string(j.Priority),
		"cached", j.Cached)
	// A cache hit is already terminal: answer 200 so clients can skip the
	// poll loop; everything else is genuinely asynchronous, hence 202.
	status := http.StatusAccepted
	if j.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, viewOf(j))
}

// handleJob serves one job's subtree: status, result, cancel, stats.
func (s *api) handleJob(mgr *jobs.Manager) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		rest := strings.TrimPrefix(r.URL.Path, "/v1/jobs/")
		if rest == "stats" {
			if r.Method != http.MethodGet && r.Method != http.MethodHead {
				w.Header().Set("Allow", "GET, HEAD")
				writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
					fmt.Errorf("/v1/jobs/stats requires GET"))
				return
			}
			writeJSON(w, http.StatusOK, mgr.Stats())
			return
		}
		id, action, _ := strings.Cut(rest, "/")
		if id == "" {
			writeErr(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no such route %s", r.URL.Path))
			return
		}
		switch {
		case action == "" && (r.Method == http.MethodGet || r.Method == http.MethodHead):
			j, err := mgr.Get(id)
			if err != nil {
				writeJobsErr(w, mgr, err)
				return
			}
			writeJSON(w, http.StatusOK, viewOf(j))
		case action == "" && r.Method == http.MethodDelete:
			s.handleJobCancel(mgr, w, r, id)
		case action == "result" && (r.Method == http.MethodGet || r.Method == http.MethodHead):
			j, err := mgr.Get(id)
			if err != nil {
				writeJobsErr(w, mgr, err)
				return
			}
			if !j.State.Terminal() {
				w.Header().Set("Retry-After", "1")
				writeErr(w, http.StatusConflict, codeConflict,
					fmt.Errorf("job %s is still %s; poll its status and retry", id, j.State))
				return
			}
			writeJSON(w, http.StatusOK, jobResult{jobView: viewOf(j), Result: j.Result})
		case action == "events" && (r.Method == http.MethodGet || r.Method == http.MethodHead):
			s.handleJobEvents(mgr, w, r, id)
		case action == "cancel" && r.Method == http.MethodPost:
			s.handleJobCancel(mgr, w, r, id)
		default:
			writeErr(w, http.StatusNotFound, codeNotFound,
				fmt.Errorf("no such route %s %s", r.Method, r.URL.Path))
		}
	}
}

func (s *api) handleJobCancel(mgr *jobs.Manager, w http.ResponseWriter, r *http.Request, id string) {
	j, err := mgr.Cancel(id)
	if err != nil {
		writeJobsErr(w, mgr, err)
		return
	}
	s.cfg.Logger.Info("job cancel requested",
		"request_id", RequestID(r.Context()), "job", id, "state", string(j.State))
	writeJSON(w, http.StatusOK, viewOf(j))
}

// --- executors ---

// execDiagnose is the "diagnose" job kind: the /v1/diagnose pipeline fed
// from the queue. The payload is a canonicalized diagnoseRequest.
func (s *api) execDiagnose(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	req, ok := readDiagnoseRequest(payload)
	if !ok {
		if err := strictUnmarshal(payload, &req); err != nil {
			return nil, fmt.Errorf("decode diagnose job: %w", err)
		}
	}
	if err := s.suiteSizeErr("suite", len(req.Suite), func(i int) int { return len(req.Suite[i].Inputs) }); err != nil {
		return nil, err
	}
	resp, err := s.runDiagnose(ctx, req, nil)
	if err != nil {
		return nil, err
	}
	return json.Marshal(resp)
}

// sweepJobRequest is the "sweep" job kind's request document.
type sweepJobRequest struct {
	Spec json.RawMessage `json:"spec"`
	// SpecRef names a registered model by content hash instead of an inline
	// spec document; it wins when both are set.
	SpecRef string          `json:"specRef,omitempty"`
	Suite   []cfsm.CaseJSON `json:"suite,omitempty"` // default: generated tour
	// CheckEquivalence enables the (expensive) equivalence check on
	// undetected mutants.
	CheckEquivalence bool `json:"checkEquivalence,omitempty"`
	// Workers sizes the sweep's own worker pool; <= 0 falls back to
	// GOMAXPROCS with a logged note.
	Workers int `json:"workers,omitempty"`
}

// sweepJobResponse summarizes a sweep run and the worker count it ran on.
type sweepJobResponse struct {
	experiments.Summary
	Workers int `json:"workers"`
}

// execSweep is the "sweep" job kind: a full mutation sweep (experiment E5)
// over the queue.
func (s *api) execSweep(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
	var req sweepJobRequest
	if err := strictUnmarshal(payload, &req); err != nil {
		return nil, fmt.Errorf("decode sweep job: %w", err)
	}
	if err := s.suiteSizeErr("suite", len(req.Suite), func(i int) int { return len(req.Suite[i].Inputs) }); err != nil {
		return nil, err
	}
	specEntry, err := s.resolveModel(req.Spec, req.SpecRef)
	if err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	spec := specEntry.sys
	suite, err := cfsm.DecodeSuite(req.Suite)
	if err != nil {
		return nil, err
	}
	if suite, err = specEntry.suiteOrTour(suite); err != nil {
		return nil, err
	}
	workers := req.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
		if req.Workers < 0 {
			s.cfg.Logger.Warn("sweep job: non-positive worker count, falling back to GOMAXPROCS",
				"requested", req.Workers, "workers", workers)
		}
	}
	res, err := experiments.RunSweepContext(ctx, spec, suite, experiments.SweepOptions{
		CheckEquivalence: req.CheckEquivalence,
		Workers:          workers,
		Registry:         s.cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	return json.Marshal(sweepJobResponse{Summary: res.Summary(), Workers: workers})
}
