// Package server exposes the diagnosis library as a JSON-over-HTTP service,
// so non-Go test harnesses can validate specifications, analyze recorded
// observations and run full diagnoses. All diagnosis endpoints are POST with
// JSON bodies; systems use the cfsm JSON codec, suites and observations the
// same token formats as the CLI ("a^1", "-", "ε^3").
//
// # Endpoints (v1)
//
//	POST /v1/validate  {"spec": <system>}                       -> stats + warnings
//	POST /v1/suite     {"spec": <system>, "kind": "tour"|
//	                    "verification"|"verification-minimized"} -> generated suite
//	POST /v1/analyze   {"spec": <system>, "suite": [<case>...],
//	                    "observations": [[token...]...]}        -> diagnoses + planned tests
//	POST /v1/diagnose  {"spec": <system>, "iut": <system>,
//	                    "suite": [<case>...]?}                  -> verdict + fault + log
//	                   ?trace=1 (requires Config.EnableTracing)  -> + structured trace,
//	                    replayable offline with `cfsmdiag replay`; 501 when disabled
//	POST /v1/models    <system JSON document> or the binary     -> content hash + stats
//	                    model form produced by `cfsmdiag convert`
//	GET  /v1/models/{hash}                                      -> the registered model
//	                   ?format=binary                            -> its binary encoding
//	GET  /healthz                                               -> liveness probe
//	GET  /metrics                                               -> Prometheus text exposition
//
// Every endpoint that takes a system resolves it through a content-addressed
// model registry: a model seen once (inline or uploaded) is cached by the
// content hash of its canonical binary encoding and never re-validated.
// Requests may replace an inline "spec"/"iut" document with a "specRef"/
// "iutRef" content hash of a registered model. Registry traffic is measured
// by the cfsmdiag_model_* metric families.
//
// Services built with NewService and Config.EnableJobs additionally serve
// the durable batch queue under /v1/jobs (submit, poll, fetch result,
// cancel; see the route table in jobs.go): accepted jobs survive a restart
// via a write-ahead log, duplicate submissions are answered from a
// content-addressed result cache, and a full queue rejects work with 429
// plus a Retry-After estimate. GET /v1/jobs lists in stable order (submit
// time, then id) with ?limit=/?offset= pagination and an optional ?state=
// filter. GET /v1/jobs/{id}/events streams a job's lifecycle: Server-Sent
// Events when the client accepts text/event-stream, long-poll with
// ?wait=/?after= otherwise (see sse.go). With Config.JobsTenantRate set,
// queue admissions are additionally metered per tenant (the submission's
// "tenant" field); a flooding tenant answers 429 with the distinct
// tenant_rate_limited code while other tenants keep submitting.
//
// # Endpoints (cluster)
//
// Services built with NewService and Config.EnableCluster serve the
// distributed mutant sweep (internal/cluster) under /v1/cluster:
//
//	POST /v1/cluster/sweeps                        create a sweep (spec or specRef)
//	GET  /v1/cluster/sweeps                        list sweeps (stable order, paginated)
//	GET  /v1/cluster/sweeps/{id}                   status + merged result when done
//	GET  /v1/cluster/sweeps/{id}/ranges            per-range lease states
//	POST /v1/cluster/sweeps/{id}/lease             worker pulls a range lease (204 = no work)
//	POST /v1/cluster/sweeps/{id}/ranges/{n}/result worker pushes a range's verdicts
//	POST /v1/cluster/attach                        hand this worker a coordinator URL
//	                                               (worker processes only; Config.ClusterWorker)
//
// Ranges are leased with fencing tokens and expire on worker loss, so the
// merged result is byte-identical to a single-process sweep — zero verdicts
// lost, zero duplicated (package cluster documents the protocol).
//
// # Errors
//
// Every error response carries a single envelope:
//
//	{"error": {"code": "<machine-readable>", "message": "<human-readable>"}}
//
// with codes bad_request, method_not_allowed, unsupported_media_type,
// payload_too_large, suite_too_large, unprocessable, unsupported_model_format,
// not_found, not_implemented, timeout, canceled, internal, queue_full,
// conflict and unavailable. Wrong methods answer 405 with an Allow header;
// non-JSON content types answer 415; "?trace=1" on a server without tracing
// answers 501. Binary model uploads with an unsupported version, a content-
// hash mismatch or a truncated payload answer 422 with
// unsupported_model_format, mirroring the compiled codec's typed errors.
//
// # Observability
//
// Every request is measured (cfsmdiag_http_* families), assigned a request
// ID (X-Request-ID, generated when absent) and access-logged through the
// configured obs.Logger. The diagnosis pipeline itself reports oracle
// queries, symptom counts and verdicts on the same registry; /metrics
// exposes everything. Request bodies are capped, hostile suite sizes are
// rejected, and a configurable per-request timeout cancels in-flight
// localizations when the client disconnects.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"mime"
	"net/http"
	"net/http/pprof"
	"strings"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/cluster"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/jobs"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/resilient"
	httpapi "cfsmdiag/internal/server/api"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// Config tunes the service. The zero value is production-safe: metrics on a
// fresh registry, no logging, 8 MiB bodies, 4096-case suites and no timeout.
type Config struct {
	// Registry receives request and pipeline metrics and backs /metrics.
	// Nil selects a fresh private registry so /metrics always works.
	Registry *obs.Registry
	// Logger receives access logs and operational warnings; nil disables.
	Logger *obs.Logger
	// RequestTimeout bounds each request's context; once exceeded the
	// in-flight localization is canceled and the client gets 504. Zero
	// disables the timeout (the client's disconnect still cancels).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies (default 8 MiB).
	MaxBodyBytes int64
	// MaxSuiteCases caps test cases per request (default 4096), and also
	// bounds the observation-sequence count on /v1/analyze.
	MaxSuiteCases int
	// MaxCaseInputs caps inputs per test case (default 65536).
	MaxCaseInputs int
	// ModelCacheEntries caps the content-addressed model registry (default
	// 256 cache keys); oldest entries are evicted first.
	ModelCacheEntries int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// EnableTracing honors "?trace=1" on /v1/diagnose: the diagnosis runs
	// with a per-request structured tracer and the response carries the
	// events inline (replayable with `cfsmdiag replay`). When disabled the
	// query parameter answers 501 so clients can distinguish "tracing off"
	// from "unknown route".
	EnableTracing bool
	// InstrumentSimulator installs the process-wide simulator step/reset
	// counters on Registry (cfsm.InstrumentSimulator). Because the hook is
	// process-global, enable it from exactly one server per process.
	InstrumentSimulator bool
	// EnableJobs mounts the durable batch surface under /v1/jobs. Jobs are
	// served only by handlers built with NewService (which owns the worker
	// pool's lifecycle); New ignores the flag.
	EnableJobs bool
	// JobsDir stores the jobs WAL and snapshot so accepted work survives a
	// restart; empty keeps the queue in memory only.
	JobsDir string
	// JobsWorkers sizes the job worker pool; <= 0 falls back to GOMAXPROCS
	// with a logged note.
	JobsWorkers int
	// JobsQueueDepth caps queued jobs; submissions beyond it answer 429
	// with a Retry-After estimate. <= 0 selects the jobs package default.
	JobsQueueDepth int
	// JobsTenantRate enables per-tenant fair admission on the job queue:
	// each tenant's queue admissions are metered at this rate (submissions
	// per second); beyond it the submission answers 429 with the distinct
	// tenant_rate_limited code and a Retry-After from the tenant's own
	// bucket. <= 0 disables per-tenant limiting.
	JobsTenantRate float64
	// JobsTenantBurst is each tenant bucket's burst capacity; <= 0 selects
	// about one second of JobsTenantRate (minimum 1).
	JobsTenantBurst int
	// Tracer receives job.* events (submit, run spans, cache hits, drain);
	// nil disables job tracing.
	Tracer *trace.Tracer
	// EnableCluster mounts the distributed-sweep coordinator under
	// /v1/cluster/sweeps (services built with NewService only; New ignores
	// the flag, as with EnableJobs).
	EnableCluster bool
	// ClusterDir stores the cluster journal so created sweeps and merged
	// ranges survive a restart; empty keeps sweeps in memory only.
	ClusterDir string
	// ClusterLeaseTTL bounds how long a leased range stays fenced to one
	// worker before it replays elsewhere; <= 0 selects the cluster default.
	ClusterLeaseTTL time.Duration
	// ClusterRangeSize is the default mutant-index shard width; <= 0
	// selects the cluster default.
	ClusterRangeSize int
	// ClusterWorker, when non-nil, mounts POST /v1/cluster/attach so ad-hoc
	// coordinators (e.g. `cfsmdiag sweep -distributed -workers-urls=...`)
	// can introduce themselves to this process's sweep worker.
	ClusterWorker *cluster.Worker
	// OracleTimeout, OracleRetries and OracleVotes configure the resilient
	// retry layer (internal/resilient) around every diagnosis oracle:
	// per-execution timeout, retry budget for failed executions, and
	// majority-vote repetitions per diagnostic test. All zero (the default)
	// runs the oracle bare; any non-default value enables the layer. When a
	// query exhausts the budget the localization degrades to the
	// inconclusive-observation verdict instead of failing or convicting on
	// untrusted evidence.
	OracleTimeout time.Duration
	OracleRetries int
	OracleVotes   int
}

// resilientEnabled reports whether any retry-layer knob is set.
func (c Config) resilientEnabled() bool {
	return c.OracleTimeout > 0 || c.OracleRetries > 0 || c.OracleVotes > 1
}

func (c Config) withDefaults() Config {
	if c.Registry == nil {
		c.Registry = obs.New()
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.MaxSuiteCases <= 0 {
		c.MaxSuiteCases = 4096
	}
	if c.MaxCaseInputs <= 0 {
		c.MaxCaseInputs = 65536
	}
	if c.ModelCacheEntries <= 0 {
		c.ModelCacheEntries = 256
	}
	return c
}

// api is the configured service.
type api struct {
	cfg    Config
	m      httpMetrics
	sse    sseMetrics
	models *modelRegistry
}

// New returns the service's HTTP handler with the given configuration. It
// cannot own a worker pool's lifecycle, so Config.EnableJobs is ignored;
// use NewService for the batch surface.
func New(cfg Config) http.Handler {
	cfg.EnableJobs = false
	cfg.EnableCluster = false
	svc, err := NewService(cfg)
	if err != nil {
		// Unreachable: every error path of NewService requires EnableJobs or
		// EnableCluster.
		panic(err)
	}
	return svc.Handler()
}

// Service is a configured server together with its batch-job subsystem.
// Close it on shutdown so in-flight jobs drain and queued jobs reach the
// final snapshot.
type Service struct {
	handler http.Handler
	mgr     *jobs.Manager
	coord   *cluster.Coordinator
}

// Handler returns the service's HTTP handler.
func (s *Service) Handler() http.Handler { return s.handler }

// Jobs returns the batch-job manager, nil when jobs are disabled.
func (s *Service) Jobs() *jobs.Manager { return s.mgr }

// Cluster returns the distributed-sweep coordinator, nil when disabled.
func (s *Service) Cluster() *cluster.Coordinator { return s.coord }

// Close drains the job subsystem (running jobs finish until ctx expires,
// queued jobs persist for the next start) and releases the cluster
// coordinator's journal. A service without either closes instantly.
func (s *Service) Close(ctx context.Context) error {
	var err error
	if s.coord != nil {
		err = s.coord.Close()
	}
	if s.mgr != nil {
		if e := s.mgr.Close(ctx); err == nil {
			err = e
		}
	}
	return err
}

// NewService builds the HTTP surface and, when cfg.EnableJobs is set, the
// durable job queue behind /v1/jobs.
func NewService(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	s := &api{
		cfg:    cfg,
		m:      newHTTPMetrics(cfg.Registry),
		sse:    newSSEMetrics(cfg.Registry),
		models: newModelRegistry(cfg.Registry, cfg.ModelCacheEntries),
	}

	// Pre-register the pipeline families so /metrics lists the full schema
	// (request latency, oracle queries, sweep durations, simulator steps)
	// before the first diagnosis runs.
	core.RegisterMetrics(cfg.Registry)
	ports.RegisterMetrics(cfg.Registry)
	experiments.RegisterSweepMetrics(cfg.Registry)
	if cfg.resilientEnabled() {
		resilient.RegisterMetrics(cfg.Registry)
	}
	sim := cfsm.NewSimMetrics(cfg.Registry)
	if cfg.InstrumentSimulator {
		cfsm.InstrumentSimulator(sim)
	}

	mux := http.NewServeMux()
	handlers := map[string]http.HandlerFunc{
		"/v1/validate": s.handleValidate,
		"/v1/suite":    s.handleSuite,
		"/v1/analyze":  s.handleAnalyze,
		"/v1/diagnose": s.handleDiagnose,
	}
	for _, path := range v1Paths {
		mux.Handle(path, s.wrap(path, s.post(handlers[path])))
	}
	// The model registry surface: uploads sniff JSON vs binary themselves,
	// so they bypass the JSON-only s.post wrapper.
	mux.Handle("/v1/models", s.wrap("/v1/models", s.handleModels))
	mux.Handle("/v1/models/", s.wrap("/v1/models/{hash}", s.handleModelGet))
	mux.Handle("/healthz", s.wrap("/healthz", s.handleHealthz))
	mux.Handle("/metrics", s.wrap("/metrics", s.handleMetrics))
	if cfg.EnablePprof {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}

	svc := &Service{handler: mux}
	if cfg.EnableJobs {
		mgr, err := jobs.Open(jobs.Config{
			Workers:     cfg.JobsWorkers,
			QueueDepth:  cfg.JobsQueueDepth,
			Dir:         cfg.JobsDir,
			TenantRate:  cfg.JobsTenantRate,
			TenantBurst: cfg.JobsTenantBurst,
			Registry:    cfg.Registry,
			Logger:      cfg.Logger,
			Tracer:      cfg.Tracer,
		}, map[string]jobs.Executor{
			"diagnose": s.execDiagnose,
			"sweep":    s.execSweep,
		})
		if err != nil {
			return nil, err
		}
		svc.mgr = mgr
		mux.Handle("/v1/jobs", s.wrap("/v1/jobs", s.handleJobs(mgr)))
		// The events route is long-lived by design (SSE, long-poll), so it
		// bypasses the per-request timeout; everything else under /v1/jobs/
		// keeps the standard chain.
		jobH := s.wrap("/v1/jobs/{id}", s.handleJob(mgr))
		eventsH := s.wrapStream("/v1/jobs/{id}/events", s.handleJob(mgr))
		mux.Handle("/v1/jobs/", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if strings.HasSuffix(r.URL.Path, "/events") {
				eventsH.ServeHTTP(w, r)
				return
			}
			jobH.ServeHTTP(w, r)
		}))
	}
	if cfg.EnableCluster {
		coord, err := cluster.Open(cluster.Config{
			LeaseTTL:  cfg.ClusterLeaseTTL,
			RangeSize: cfg.ClusterRangeSize,
			Dir:       cfg.ClusterDir,
			Registry:  cfg.Registry,
			Logger:    cfg.Logger,
		})
		if err != nil {
			if svc.mgr != nil {
				_ = svc.mgr.Close(context.Background())
			}
			return nil, err
		}
		svc.coord = coord
		ch := coord.Handler(func(ref string) (*cfsm.System, error) {
			return s.resolveModel(cfsm.SystemJSON{}, ref)
		})
		mux.Handle(cluster.Prefix+"/sweeps", s.wrap(cluster.Prefix+"/sweeps", ch.ServeHTTP))
		mux.Handle(cluster.Prefix+"/sweeps/", s.wrap(cluster.Prefix+"/sweeps/{id}", ch.ServeHTTP))
	}
	if cfg.ClusterWorker != nil {
		attach := cfg.ClusterWorker.AttachHandler()
		mux.Handle(cluster.Prefix+"/attach", s.wrap(cluster.Prefix+"/attach", attach.ServeHTTP))
	}

	mux.Handle("/", s.wrap("other", func(w http.ResponseWriter, r *http.Request) {
		writeErr(w, http.StatusNotFound, codeNotFound, fmt.Errorf("no such route %s", r.URL.Path))
	}))
	return svc, nil
}

// Handler returns the service with the default configuration. It remains the
// zero-configuration entry point used by earlier releases.
func Handler() http.Handler { return New(Config{}) }

// v1Paths lists the versioned JSON endpoints in display order; New mounts
// them and RouteList renders them for startup logging.
var v1Paths = []string{"/v1/validate", "/v1/suite", "/v1/analyze", "/v1/diagnose"}

// RouteList names every route a handler built from cfg serves, in display
// order, so `cfsmdiag serve` can log the surface at startup.
func RouteList(cfg Config) []string {
	var routes []string
	for _, p := range v1Paths {
		routes = append(routes, "POST "+p)
	}
	routes = append(routes, "POST /v1/models", "GET /v1/models/{hash}")
	if cfg.EnableJobs {
		routes = append(routes,
			"POST /v1/jobs", "GET /v1/jobs", "GET /v1/jobs/stats",
			"GET /v1/jobs/{id}", "GET /v1/jobs/{id}/result",
			"GET /v1/jobs/{id}/events (SSE / long-poll)",
			"POST /v1/jobs/{id}/cancel", "DELETE /v1/jobs/{id}")
	}
	if cfg.EnableCluster {
		routes = append(routes,
			"POST /v1/cluster/sweeps", "GET /v1/cluster/sweeps",
			"GET /v1/cluster/sweeps/{id}", "GET /v1/cluster/sweeps/{id}/ranges",
			"POST /v1/cluster/sweeps/{id}/lease",
			"POST /v1/cluster/sweeps/{id}/ranges/{n}/result")
	}
	if cfg.ClusterWorker != nil {
		routes = append(routes, "POST /v1/cluster/attach")
	}
	routes = append(routes, "GET /healthz", "GET /metrics")
	if cfg.EnablePprof {
		routes = append(routes, "GET /debug/pprof/")
	}
	return routes
}

// --- error envelope ---

// Error codes of the v1 envelope, shared with every other HTTP surface
// through internal/server/api (one envelope for the whole service).
const (
	codeBadRequest        = httpapi.CodeBadRequest
	codeMethodNotAllowed  = httpapi.CodeMethodNotAllowed
	codeUnsupportedMedia  = httpapi.CodeUnsupportedMedia
	codePayloadTooLarge   = httpapi.CodePayloadTooLarge
	codeSuiteTooLarge     = httpapi.CodeSuiteTooLarge
	codeUnprocessable     = httpapi.CodeUnprocessable
	codeUnsupportedModel  = httpapi.CodeUnsupportedModel
	codeNotFound          = httpapi.CodeNotFound
	codeNotImplemented    = httpapi.CodeNotImplemented
	codeTimeout           = httpapi.CodeTimeout
	codeCanceled          = httpapi.CodeCanceled
	codeInternal          = httpapi.CodeInternal
	codeQueueFull         = httpapi.CodeQueueFull
	codeTenantRateLimited = httpapi.CodeTenantRateLimited
	codeConflict          = httpapi.CodeConflict
	codeUnavailable       = httpapi.CodeUnavailable
	codeInvalidPortMap    = httpapi.CodeInvalidPortMap
	codeDuplicateTestCase = httpapi.CodeDuplicateTestCase
)

type errorDetail = httpapi.ErrorDetail

type errorEnvelope = httpapi.ErrorEnvelope

func writeJSON(w http.ResponseWriter, status int, v any) {
	httpapi.WriteJSON(w, status, v)
}

func writeErr(w http.ResponseWriter, status int, code string, err error) {
	httpapi.WriteError(w, status, code, err)
}

// invalidPortMapError tags a distributed-observation port-map validation
// failure so the envelope can answer with its typed code.
type invalidPortMapError struct{ err error }

func (e invalidPortMapError) Error() string { return e.err.Error() }
func (e invalidPortMapError) Unwrap() error { return e.err }

// writePipelineErr maps a diagnosis-pipeline error onto the envelope:
// timeouts and client disconnects get their own codes, malformed suites and
// port maps their typed 422s, everything else is a semantic (unprocessable)
// failure.
func writePipelineErr(w http.ResponseWriter, err error) {
	var dup duplicateTestCaseError
	var pmErr invalidPortMapError
	switch {
	case errors.Is(err, context.DeadlineExceeded):
		writeErr(w, http.StatusGatewayTimeout, codeTimeout, err)
	case errors.Is(err, context.Canceled):
		// 499 is the de-facto "client closed request" status; the client is
		// usually gone, but the envelope keeps logs and tests uniform.
		writeErr(w, 499, codeCanceled, err)
	case errors.As(err, &dup):
		writeErr(w, http.StatusUnprocessableEntity, codeDuplicateTestCase, err)
	case errors.As(err, &pmErr):
		writeErr(w, http.StatusUnprocessableEntity, codeInvalidPortMap, err)
	default:
		writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
	}
}

// post enforces method and content type for the JSON endpoints.
func (s *api) post(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed,
				fmt.Errorf("%s requires POST", r.URL.Path))
			return
		}
		if ct := r.Header.Get("Content-Type"); ct != "" {
			mt, _, err := mime.ParseMediaType(ct)
			if err != nil || mt != "application/json" {
				writeErr(w, http.StatusUnsupportedMediaType, codeUnsupportedMedia,
					fmt.Errorf("content type %q is not application/json", ct))
				return
			}
		}
		h(w, r)
	}
}

// decode reads and decodes a JSON body under the configured size cap.
func (s *api) decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			writeErr(w, http.StatusRequestEntityTooLarge, codePayloadTooLarge,
				fmt.Errorf("request body exceeds %d bytes", s.cfg.MaxBodyBytes))
			return false
		}
		writeErr(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("decode request: %w", err))
		return false
	}
	return true
}

// suiteSizeErr reports an absurd suite before it reaches the simulator; the
// HTTP path and the job executors share it.
func (s *api) suiteSizeErr(what string, cases int, inputs func(i int) int) error {
	if cases > s.cfg.MaxSuiteCases {
		return fmt.Errorf("%s has %d cases; the limit is %d", what, cases, s.cfg.MaxSuiteCases)
	}
	for i := 0; i < cases; i++ {
		if n := inputs(i); n > s.cfg.MaxCaseInputs {
			return fmt.Errorf("%s case %d has %d inputs; the limit is %d", what, i+1, n, s.cfg.MaxCaseInputs)
		}
	}
	return nil
}

// checkSuiteSize is suiteSizeErr with the HTTP error envelope.
func (s *api) checkSuiteSize(w http.ResponseWriter, what string, cases int, inputs func(i int) int) bool {
	if err := s.suiteSizeErr(what, cases, inputs); err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeSuiteTooLarge, err)
		return false
	}
	return true
}

// --- GET /healthz and GET /metrics ---

func (s *api) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, fmt.Errorf("/healthz requires GET"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *api) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		w.Header().Set("Allow", "GET, HEAD")
		writeErr(w, http.StatusMethodNotAllowed, codeMethodNotAllowed, fmt.Errorf("/metrics requires GET"))
		return
	}
	s.cfg.Registry.Handler().ServeHTTP(w, r)
}

// --- POST /v1/validate ---

type validateRequest struct {
	Spec cfsm.SystemJSON `json:"spec"`
}

type validateResponse struct {
	Machines    int      `json:"machines"`
	Transitions int      `json:"transitions"`
	Warnings    []string `json:"warnings,omitempty"`
}

func (s *api) handleValidate(w http.ResponseWriter, r *http.Request) {
	var req validateRequest
	if !s.decode(w, r, &req) {
		return
	}
	sys, err := s.models.resolveDoc(req.Spec)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
		return
	}
	resp := validateResponse{Machines: sys.N(), Transitions: sys.NumTransitions()}
	for _, warn := range core.CheckAssumptions(sys) {
		resp.Warnings = append(resp.Warnings, warn.String())
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- shared suite / observation wire formats ---

type testCaseJSON struct {
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
}

// duplicateTestCaseError reports a suite naming two test cases identically.
// The analysis layer keys its per-case result maps by test-case name, so a
// collision would silently attribute one case's observations to the other;
// suites are rejected at decode time with the typed duplicate_test_case code
// instead.
type duplicateTestCaseError struct{ name string }

func (e duplicateTestCaseError) Error() string {
	return fmt.Sprintf("suite names two test cases %q; test-case names must be unique", e.name)
}

func decodeSuite(cases []testCaseJSON) ([]cfsm.TestCase, error) {
	var out []cfsm.TestCase
	seen := make(map[string]bool, len(cases))
	for i, tj := range cases {
		tc := cfsm.TestCase{Name: tj.Name}
		if tc.Name == "" {
			tc.Name = fmt.Sprintf("tc%d", i+1)
		}
		if seen[tc.Name] {
			return nil, duplicateTestCaseError{name: tc.Name}
		}
		seen[tc.Name] = true
		for _, tok := range tj.Inputs {
			in, err := cfsm.ParseInputToken(tok)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", tc.Name, err)
			}
			tc.Inputs = append(tc.Inputs, in)
		}
		out = append(out, tc)
	}
	return out, nil
}

func decodeObservations(seqs [][]string) ([][]cfsm.Observation, error) {
	out := make([][]cfsm.Observation, len(seqs))
	for i, seq := range seqs {
		for _, tok := range seq {
			o, err := cfsm.ParseObservationToken(tok)
			if err != nil {
				return nil, fmt.Errorf("sequence %d: %w", i+1, err)
			}
			out[i] = append(out[i], o)
		}
	}
	return out, nil
}

func encodeObservations(obs []cfsm.Observation) []string {
	out := make([]string, len(obs))
	for i, o := range obs {
		out[i] = o.String()
	}
	return out
}

func encodeInputs(ins []cfsm.Input) []string {
	out := make([]string, len(ins))
	for i, in := range ins {
		out[i] = in.String()
	}
	return out
}

// --- POST /v1/suite ---

type suiteRequest struct {
	Spec cfsm.SystemJSON `json:"spec"`
	// SpecRef names a registered model by content hash instead of an inline
	// spec document; it wins when both are set.
	SpecRef string `json:"specRef,omitempty"`
	// Kind selects the generator: "tour" (default), "verification", or
	// "verification-minimized".
	Kind string `json:"kind,omitempty"`
	// MaxLen bounds tour test cases (0 = unbounded; tour only).
	MaxLen int `json:"maxLen,omitempty"`
}

type suiteResponse struct {
	Suite []testCaseJSON `json:"suite"`
	// Uncovered lists unreachable transitions (tour) or undetectable
	// faults (verification).
	Uncovered []string `json:"uncovered,omitempty"`
}

func (s *api) handleSuite(w http.ResponseWriter, r *http.Request) {
	var req suiteRequest
	if !s.decode(w, r, &req) {
		return
	}
	sys, err := s.resolveModel(req.Spec, req.SpecRef)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
		return
	}
	var resp suiteResponse
	var suite []cfsm.TestCase
	switch req.Kind {
	case "", "tour":
		var uncovered []cfsm.Ref
		suite, uncovered = testgen.Tour(sys, req.MaxLen)
		for _, ref := range uncovered {
			resp.Uncovered = append(resp.Uncovered, sys.RefString(ref))
		}
	case "verification", "verification-minimized":
		var undetectable []fault.Fault
		suite, undetectable = testgen.VerificationSuite(sys)
		for _, f := range undetectable {
			resp.Uncovered = append(resp.Uncovered, f.Describe(sys))
		}
		if req.Kind == "verification-minimized" {
			suite, err = testgen.MinimizeSuite(sys, suite)
			if err != nil {
				writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
				return
			}
		}
	default:
		writeErr(w, http.StatusBadRequest, codeBadRequest, fmt.Errorf("unknown suite kind %q", req.Kind))
		return
	}
	for _, tc := range suite {
		tj := testCaseJSON{Name: tc.Name}
		for _, in := range tc.Inputs {
			tj.Inputs = append(tj.Inputs, in.String())
		}
		resp.Suite = append(resp.Suite, tj)
	}
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/diagnose ---

type diagnoseRequest struct {
	Spec cfsm.SystemJSON `json:"spec"`
	IUT  cfsm.SystemJSON `json:"iut"`
	// SpecRef and IUTRef name registered models by content hash instead of
	// the inline documents; a ref wins over its inline counterpart.
	SpecRef string         `json:"specRef,omitempty"`
	IUTRef  string         `json:"iutRef,omitempty"`
	Suite   []testCaseJSON `json:"suite,omitempty"` // default: generated tour
	// MaxAdditionalTests bounds the adaptive phase (0 = unbounded).
	MaxAdditionalTests int `json:"maxAdditionalTests,omitempty"`
	// Ports assigns machines to named observer ports for distributed
	// observation (machine name → observer name, every machine assigned).
	// Omitted or single-observer maps run the classical global pipeline.
	Ports map[string]string `json:"ports,omitempty"`
}

type additionalTestJSON struct {
	Target   string   `json:"target"`
	Inputs   []string `json:"inputs"`
	Expected []string `json:"expected"`
	Observed []string `json:"observed"`
}

type diagnoseResponse struct {
	Verdict   string   `json:"verdict"`
	Fault     string   `json:"fault,omitempty"`
	Remaining []string `json:"remaining,omitempty"`
	Cleared   []string `json:"cleared,omitempty"`
	// Inconclusive lists the candidate transitions whose diagnostic tests
	// never produced a trustworthy observation (resilient retry/vote budget
	// exhausted); non-empty iff Verdict is the inconclusive one.
	Inconclusive    []string             `json:"inconclusive,omitempty"`
	// LocallyAmbiguous lists candidate transitions whose surviving
	// hypotheses are separable under global observation but not in any
	// per-port projection; only a multi-port (distributed observation)
	// diagnosis can produce them.
	LocallyAmbiguous []string             `json:"locallyAmbiguous,omitempty"`
	AdditionalTests  []additionalTestJSON `json:"additionalTests,omitempty"`
	SuiteCases       int                  `json:"suiteCases"`
	TotalTests       int                  `json:"totalTests"`
	TotalInputs      int                  `json:"totalInputs"`
	// Ports summarizes the distributed-observation run when the request
	// supplied a multi-observer port map.
	Ports *portsReportJSON `json:"ports,omitempty"`
	// Trace carries the structured trace of the run when the request asked
	// for "?trace=1" and the server has tracing enabled. It includes the
	// replay header events, so writing it to a file as JSON-lines yields a
	// trace `cfsmdiag replay` accepts.
	Trace []trace.Event `json:"trace,omitempty"`
}

// traceRequested reports whether the request opted into structured tracing.
func traceRequested(r *http.Request) bool {
	switch r.URL.Query().Get("trace") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// portsReportJSON is the wire rendering of a ports.Report.
type portsReportJSON struct {
	Observers             []string `json:"observers"`
	Cases                 int      `json:"cases"`
	AmbiguousCases        int      `json:"ambiguousCases"`
	InterleavingsExplored uint64   `json:"interleavingsExplored"`
}

// portMapFor resolves a request's port assignments against the
// specification; a validation failure carries the typed invalid_port_map
// code through writePipelineErr. The second return is false when the request
// carried no assignments at all.
func portMapFor(assignments map[string]string, spec *cfsm.System) (ports.Map, bool, error) {
	if len(assignments) == 0 {
		return ports.Map{}, false, nil
	}
	pm, err := ports.FromAssignments(assignments, spec)
	if err != nil {
		return ports.Map{}, true, invalidPortMapError{err: err}
	}
	return pm, true, nil
}

// prepareDiagnose decodes a diagnosis request's systems and resolves its
// suite (explicit or generated tour). Shared by the HTTP handler and the
// "diagnose" job executor.
// Suite sizes are NOT checked here — the HTTP handler rejects them with
// the suite_too_large code before calling in, and the job executors call
// suiteSizeErr themselves.
func (s *api) prepareDiagnose(req diagnoseRequest) (spec, iut *cfsm.System, suite []cfsm.TestCase, err error) {
	spec, err = s.resolveModel(req.Spec, req.SpecRef)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("spec: %w", err)
	}
	iut, err = s.resolveModel(req.IUT, req.IUTRef)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("iut: %w", err)
	}
	if len(req.Suite) > 0 {
		suite, err = decodeSuite(req.Suite)
		if err != nil {
			return nil, nil, nil, err
		}
		return spec, iut, suite, nil
	}
	// A suite-less request relies on the generated transition tour; if the
	// generator covers nothing (every transition unreachable from the
	// initial configuration) the diagnosis would silently run on an empty
	// suite and report "no fault", so reject the request instead.
	var uncovered []cfsm.Ref
	suite, uncovered = testgen.Tour(spec, 0)
	if len(suite) == 0 {
		return nil, nil, nil, fmt.Errorf("suite omitted and the generated transition tour is empty (%d transitions unreachable from the initial configuration); supply an explicit suite", len(uncovered))
	}
	return spec, iut, suite, nil
}

// oracleFor wraps the IUT in the configured resilient retry layer. The
// returned SystemOracle carries the raw test/input counters.
func (s *api) oracleFor(iut *cfsm.System) (core.Oracle, *core.SystemOracle) {
	base := &core.SystemOracle{Sys: iut}
	var oracle core.Oracle = base
	if s.cfg.resilientEnabled() {
		oracle = resilient.NewRetryOracle(base, resilient.RetryConfig{
			Timeout:  s.cfg.OracleTimeout,
			Retries:  s.cfg.OracleRetries,
			Votes:    s.cfg.OracleVotes,
			Registry: s.cfg.Registry,
		})
	}
	return oracle, base
}

// diagnoseOpts are the core options shared by every diagnosis entry point.
func (s *api) diagnoseOpts(req diagnoseRequest) []core.Option {
	opts := []core.Option{core.WithRegistry(s.cfg.Registry)}
	if req.MaxAdditionalTests > 0 {
		opts = append(opts, core.WithMaxAdditionalTests(req.MaxAdditionalTests))
	}
	return opts
}

// encodeLocalization renders a localization as the wire response.
func encodeLocalization(spec *cfsm.System, suite []cfsm.TestCase, base *core.SystemOracle, loc *core.Localization) diagnoseResponse {
	resp := diagnoseResponse{
		Verdict:     loc.Verdict.String(),
		SuiteCases:  len(suite),
		TotalTests:  base.Tests,
		TotalInputs: base.Inputs,
	}
	if loc.Fault != nil {
		resp.Fault = loc.Fault.Describe(spec)
	}
	for _, f := range loc.Remaining {
		resp.Remaining = append(resp.Remaining, f.Describe(spec))
	}
	for _, ref := range loc.Cleared {
		resp.Cleared = append(resp.Cleared, spec.RefString(ref))
	}
	for _, ref := range loc.Inconclusive {
		resp.Inconclusive = append(resp.Inconclusive, spec.RefString(ref))
	}
	for _, ref := range loc.LocallyAmbiguous {
		resp.LocallyAmbiguous = append(resp.LocallyAmbiguous, spec.RefString(ref))
	}
	for _, at := range loc.AdditionalTests {
		resp.AdditionalTests = append(resp.AdditionalTests, additionalTestJSON{
			Target:   spec.RefString(at.Target),
			Inputs:   encodeInputs(at.Test.Inputs),
			Expected: encodeObservations(at.Expected),
			Observed: encodeObservations(at.Observed),
		})
	}
	return resp
}

// runDiagnose is the untraced diagnosis pipeline end to end: decode, run,
// encode. The jobs executor calls it directly; errors are pipeline errors.
func (s *api) runDiagnose(ctx context.Context, req diagnoseRequest) (*diagnoseResponse, error) {
	spec, iut, suite, err := s.prepareDiagnose(req)
	if err != nil {
		return nil, err
	}
	pm, hasPorts, err := portMapFor(req.Ports, spec)
	if err != nil {
		return nil, err
	}
	oracle, base := s.oracleFor(iut)
	if hasPorts {
		loc, rep, err := ports.DiagnoseContext(ctx, spec, suite, oracle, pm,
			ports.WithCoreOptions(s.diagnoseOpts(req)...),
			ports.WithRegistry(s.cfg.Registry))
		if err != nil {
			return nil, err
		}
		resp := encodeLocalization(spec, suite, base, loc)
		resp.Ports = &portsReportJSON{
			Observers:             rep.Ports,
			Cases:                 rep.Cases,
			AmbiguousCases:        rep.AmbiguousCases,
			InterleavingsExplored: rep.InterleavingsExplored,
		}
		return &resp, nil
	}
	loc, err := core.DiagnoseContext(ctx, spec, suite, oracle, s.diagnoseOpts(req)...)
	if err != nil {
		return nil, err
	}
	resp := encodeLocalization(spec, suite, base, loc)
	return &resp, nil
}

func (s *api) handleDiagnose(w http.ResponseWriter, r *http.Request) {
	wantTrace := traceRequested(r)
	if wantTrace && !s.cfg.EnableTracing {
		writeErr(w, http.StatusNotImplemented, codeNotImplemented,
			fmt.Errorf("structured tracing is disabled on this server; restart it with tracing enabled to use ?trace=1"))
		return
	}
	var req diagnoseRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.checkSuiteSize(w, "suite", len(req.Suite), func(i int) int { return len(req.Suite[i].Inputs) }) {
		return
	}
	// The request context carries the configured timeout and the client's
	// disconnect; a slow adaptive localization stops at the next oracle
	// boundary once it is done.
	if !wantTrace {
		resp, err := s.runDiagnose(r.Context(), req)
		if err != nil {
			writePipelineErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, resp)
		return
	}
	spec, iut, suite, err := s.prepareDiagnose(req)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	// The traced path records a replayable global run; under a genuinely
	// distributed port map the global order is exactly what the observers do
	// not have, so the combination is refused rather than recording a trace
	// that overstates what was observed. A degenerate single-observer map is
	// the classical pipeline and traces fine.
	pm, hasPorts, err := portMapFor(req.Ports, spec)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	if hasPorts && !pm.Single() {
		writeErr(w, http.StatusNotImplemented, codeNotImplemented,
			fmt.Errorf("?trace=1 is not supported with a multi-port observation map; drop the ports field or the trace flag"))
		return
	}
	oracle, base := s.oracleFor(iut)
	tr := trace.New()
	opts := append(s.diagnoseOpts(req), core.WithTrace(tr))

	// The traced path executes the suite by hand so the replay header
	// (run.spec / run.case / run.observed) can be recorded before the
	// analysis events: the response's trace is then directly replayable.
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		if err := r.Context().Err(); err != nil {
			writePipelineErr(w, err)
			return
		}
		if observed[i], err = oracle.Execute(tc); err != nil {
			writePipelineErr(w, fmt.Errorf("execute %s: %w", tc.Name, err))
			return
		}
	}
	if err = replay.Record(tr, spec, suite, observed); err != nil {
		writeErr(w, http.StatusInternalServerError, codeInternal, err)
		return
	}
	a, err := core.Analyze(spec, suite, observed, opts...)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	loc, err := core.LocalizeContext(r.Context(), a, oracle, opts...)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	s.cfg.Logger.Info("traced diagnosis",
		"request_id", RequestID(r.Context()),
		"verdict", loc.Verdict.String(),
		"trace_events", tr.Len())
	resp := encodeLocalization(spec, suite, base, loc)
	resp.Trace = tr.Events()
	writeJSON(w, http.StatusOK, resp)
}

// --- POST /v1/analyze ---

type analyzeRequest struct {
	Spec cfsm.SystemJSON `json:"spec"`
	// SpecRef names a registered model by content hash instead of an inline
	// spec document; it wins when both are set.
	SpecRef      string         `json:"specRef,omitempty"`
	Suite        []testCaseJSON `json:"suite"`
	Observations [][]string     `json:"observations"`
	// Ports assigns machines to named observer ports for distributed
	// observation; empty keeps the classical single global observer.
	Ports map[string]string `json:"ports,omitempty"`
}

type plannedTestJSON struct {
	Target      string              `json:"target"`
	Inputs      []string            `json:"inputs"`
	Predictions map[string][]string `json:"predictions"` // hypothesis -> expected outputs
}

type analyzeResponse struct {
	Symptoms  int               `json:"symptoms"`
	Diagnoses []string          `json:"diagnoses"`
	Planned   []plannedTestJSON `json:"plannedTests,omitempty"`
	Report    string            `json:"report"`
	// Ports summarizes the distributed-observation analysis when the request
	// carried a port map.
	Ports *portsReportJSON `json:"ports,omitempty"`
}

func (s *api) handleAnalyze(w http.ResponseWriter, r *http.Request) {
	var req analyzeRequest
	if !s.decode(w, r, &req) {
		return
	}
	if !s.checkSuiteSize(w, "suite", len(req.Suite), func(i int) int { return len(req.Suite[i].Inputs) }) {
		return
	}
	if !s.checkSuiteSize(w, "observations", len(req.Observations), func(i int) int { return len(req.Observations[i]) }) {
		return
	}
	spec, err := s.resolveModel(req.Spec, req.SpecRef)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, fmt.Errorf("spec: %w", err))
		return
	}
	suite, err := decodeSuite(req.Suite)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	observed, err := decodeObservations(req.Observations)
	if err != nil {
		writeErr(w, http.StatusUnprocessableEntity, codeUnprocessable, err)
		return
	}
	pm, hasPorts, err := portMapFor(req.Ports, spec)
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	var (
		a   *core.Analysis
		rep *ports.Report
	)
	if hasPorts {
		a, rep, err = ports.AnalyzeObserved(spec, suite, observed, pm,
			ports.WithCoreOptions(core.WithRegistry(s.cfg.Registry)),
			ports.WithRegistry(s.cfg.Registry))
	} else {
		a, err = core.Analyze(spec, suite, observed, core.WithRegistry(s.cfg.Registry))
	}
	if err != nil {
		writePipelineErr(w, err)
		return
	}
	resp := analyzeResponse{Symptoms: len(a.Symptoms), Report: a.Report()}
	if rep != nil {
		resp.Ports = &portsReportJSON{
			Observers:             rep.Ports,
			Cases:                 rep.Cases,
			AmbiguousCases:        rep.AmbiguousCases,
			InterleavingsExplored: rep.InterleavingsExplored,
		}
	}
	for _, d := range a.Diagnoses {
		resp.Diagnoses = append(resp.Diagnoses, d.Describe(spec))
	}
	for _, p := range core.SuggestNextTests(a) {
		pj := plannedTestJSON{
			Target:      spec.RefString(p.Target),
			Inputs:      encodeInputs(p.Test.Inputs),
			Predictions: make(map[string][]string, len(p.Predictions)),
		}
		for _, pred := range p.Predictions {
			label := "correct"
			if pred.Fault != nil {
				label = pred.Fault.Describe(spec)
			}
			pj.Predictions[label] = encodeObservations(pred.Expected)
		}
		resp.Planned = append(resp.Planned, pj)
	}
	writeJSON(w, http.StatusOK, resp)
}
