package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/server/api"
)

// WorkerConfig tunes a sweep worker.
type WorkerConfig struct {
	// Name identifies the worker in leases and status documents; empty
	// selects "worker".
	Name string
	// Coordinators are the static coordinator base URLs (e.g.
	// "http://127.0.0.1:8080") polled for work. Static coordinators are
	// never dropped, no matter how often they fail.
	Coordinators []string
	// PollInterval is the idle back-off between passes that found no work;
	// <= 0 selects 200ms.
	PollInterval time.Duration
	// Workers is the per-range executor parallelism (experiments
	// SweepOptions.Workers); <= 0 selects 1, the exact serial path — process
	// scaling comes from running more worker processes, not more goroutines.
	Workers int
	// Client overrides the HTTP client; nil selects a 30s-timeout client.
	Client *http.Client
	// Registry receives cfsmdiag_cluster_worker_* metrics; nil disables.
	Registry *obs.Registry
	// Logger receives operational notes; nil disables.
	Logger *obs.Logger
}

// attachFailureLimit drops an Attach()-added coordinator after this many
// consecutive failed passes; flag-configured coordinators are kept forever.
const attachFailureLimit = 10

// coordinator is one polled coordinator endpoint.
type coordinator struct {
	url      string
	static   bool // from WorkerConfig.Coordinators: never dropped
	failures int  // consecutive failed passes (attached endpoints only)
}

// Worker polls coordinators for range leases, runs each leased range on the
// local sweep engine and pushes the verdicts back under the lease's fencing
// token. A worker holds no sweep state worth preserving: kill it at any
// point and its leases expire and replay elsewhere.
type Worker struct {
	cfg    WorkerConfig
	client *http.Client

	mu     sync.Mutex
	coords []*coordinator
	specs  map[string]*parsedSweep // (coordinator, sweep) -> parsed inputs

	stop chan struct{}
	done chan struct{}
}

// parsedSweep caches a lease's decoded spec and suite so a worker parses
// each sweep's inputs once, not once per range.
type parsedSweep struct {
	spec  *cfsm.System
	suite []cfsm.TestCase
}

// NewWorker builds a worker; Start begins polling.
func NewWorker(cfg WorkerConfig) *Worker {
	if cfg.Name == "" {
		cfg.Name = "worker"
	}
	if cfg.PollInterval <= 0 {
		cfg.PollInterval = 200 * time.Millisecond
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	w := &Worker{
		cfg:    cfg,
		client: cfg.Client,
		specs:  make(map[string]*parsedSweep),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	if w.client == nil {
		w.client = &http.Client{Timeout: 30 * time.Second}
	}
	for _, u := range cfg.Coordinators {
		w.coords = append(w.coords, &coordinator{url: u, static: true})
	}
	return w
}

// Attach adds a coordinator endpoint at runtime (the /v1/cluster/attach
// route). Attached endpoints are dropped after attachFailureLimit
// consecutive failed passes so a departed ad-hoc coordinator does not poison
// the poll loop forever.
func (w *Worker) Attach(url string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, c := range w.coords {
		if c.url == url {
			c.failures = 0
			return
		}
	}
	w.coords = append(w.coords, &coordinator{url: url})
	w.cfg.Logger.Info("cluster: coordinator attached", "worker", w.cfg.Name, "coordinator", url)
}

// Coordinators returns the currently polled endpoints.
func (w *Worker) Coordinators() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	out := make([]string, len(w.coords))
	for i, c := range w.coords {
		out[i] = c.url
	}
	return out
}

// Start launches the polling loop; Stop halts it.
func (w *Worker) Start() {
	go func() {
		defer close(w.done)
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		go func() {
			<-w.stop
			cancel()
		}()
		for {
			select {
			case <-w.stop:
				return
			default:
			}
			n, _ := w.RunOnce(ctx)
			if n == 0 {
				select {
				case <-w.stop:
					return
				case <-time.After(w.cfg.PollInterval):
				}
			}
		}
	}()
}

// Stop halts the polling loop and waits for the in-flight pass to finish.
func (w *Worker) Stop() {
	select {
	case <-w.stop:
	default:
		close(w.stop)
	}
	<-w.done
}

// RunOnce performs one pass over every coordinator: list running sweeps,
// then drain leases until each reports no pending work. It returns the
// number of ranges completed and the first error encountered (the pass
// still visits every coordinator).
func (w *Worker) RunOnce(ctx context.Context) (int, error) {
	w.mu.Lock()
	coords := append([]*coordinator(nil), w.coords...)
	w.mu.Unlock()

	completed := 0
	var firstErr error
	for _, c := range coords {
		n, err := w.drainCoordinator(ctx, c.url)
		completed += n
		w.noteResult(c, err)
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return completed, firstErr
}

// noteResult updates a coordinator's failure streak and drops exhausted
// attached endpoints.
func (w *Worker) noteResult(c *coordinator, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if err == nil {
		c.failures = 0
		return
	}
	c.failures++
	w.cfg.Logger.Warn("cluster: coordinator pass failed",
		"worker", w.cfg.Name, "coordinator", c.url, "failures", c.failures, "err", err)
	if c.static || c.failures < attachFailureLimit {
		return
	}
	for i, cc := range w.coords {
		if cc == c {
			w.coords = append(w.coords[:i], w.coords[i+1:]...)
			w.cfg.Logger.Warn("cluster: coordinator detached",
				"worker", w.cfg.Name, "coordinator", c.url)
			break
		}
	}
}

// drainCoordinator pulls and runs leases from one coordinator until it has
// no pending range left.
func (w *Worker) drainCoordinator(ctx context.Context, base string) (int, error) {
	var list listResponse
	if err := w.getJSON(ctx, base+Prefix+"/sweeps", &list); err != nil {
		return 0, err
	}
	completed := 0
	for _, sw := range list.Sweeps {
		if sw.State != SweepRunning {
			continue
		}
		for {
			if err := ctx.Err(); err != nil {
				return completed, err
			}
			lease, ok, err := w.lease(ctx, base, sw.ID)
			if err != nil {
				return completed, err
			}
			if !ok {
				break
			}
			if err := w.runLease(ctx, base, lease); err != nil {
				return completed, err
			}
			completed++
		}
	}
	return completed, nil
}

// lease pulls the next range of a sweep; ok is false when nothing is
// pending (HTTP 204).
func (w *Worker) lease(ctx context.Context, base, sweepID string) (Lease, bool, error) {
	body, _ := json.Marshal(LeaseRequest{Worker: w.cfg.Name})
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		base+Prefix+"/sweeps/"+sweepID+"/lease", bytes.NewReader(body))
	if err != nil {
		return Lease{}, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return Lease{}, false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNoContent {
		return Lease{}, false, nil
	}
	if resp.StatusCode != http.StatusOK {
		return Lease{}, false, httpError("lease", resp)
	}
	var lease Lease
	if err := json.NewDecoder(resp.Body).Decode(&lease); err != nil {
		return Lease{}, false, fmt.Errorf("decode lease: %w", err)
	}
	return lease, true, nil
}

// runLease executes a leased range on the local engine and pushes the
// verdicts. A 409 (stale token or already-done range) is not an error: the
// work was fenced off and the coordinator merged — or will merge — the
// current lease holder's identical verdicts.
func (w *Worker) runLease(ctx context.Context, base string, lease Lease) error {
	ps, err := w.parse(base, lease)
	if err != nil {
		return err
	}
	reports, err := experiments.RunSweepRange(ctx, ps.spec, ps.suite, experiments.SweepOptions{
		CheckEquivalence: lease.Options.CheckEquivalence,
		Workers:          w.cfg.Workers,
		Registry:         w.cfg.Registry,
	}, lease.Lo, lease.Hi)
	if err != nil {
		return err
	}
	body, err := json.Marshal(ReportRequest{
		Token: lease.Token, Worker: w.cfg.Name, Reports: EncodeReports(reports),
	})
	if err != nil {
		return err
	}
	url := fmt.Sprintf("%s%s/sweeps/%s/ranges/%d/result", base, Prefix, lease.Sweep, lease.Range)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		w.cfg.Registry.Counter("cfsmdiag_cluster_worker_ranges_total",
			"Ranges completed by this worker.").Inc()
		w.cfg.Registry.Counter("cfsmdiag_cluster_worker_mutants_total",
			"Mutants swept by this worker.").Add(int64(len(reports)))
		return nil
	case http.StatusConflict:
		// Fenced: our lease expired and the range was re-leased (stale), or
		// the replacement already finished (duplicate). Either way the
		// verdicts merge exactly once from whoever holds the token.
		w.cfg.Registry.Counter("cfsmdiag_cluster_worker_fenced_total",
			"Result pushes rejected by lease fencing.").Inc()
		w.cfg.Logger.Warn("cluster: result fenced",
			"worker", w.cfg.Name, "sweep", lease.Sweep, "range", lease.Range)
		return nil
	default:
		return httpError("result", resp)
	}
}

// parse decodes a lease's spec and suite, caching per (coordinator, sweep).
func (w *Worker) parse(base string, lease Lease) (*parsedSweep, error) {
	key := base + "\x00" + lease.Sweep
	w.mu.Lock()
	ps := w.specs[key]
	w.mu.Unlock()
	if ps != nil {
		return ps, nil
	}
	spec, err := cfsm.ParseSystem(lease.Spec)
	if err != nil {
		return nil, fmt.Errorf("lease spec: %w", err)
	}
	suite, err := cfsm.DecodeSuite(lease.Suite)
	if err != nil {
		return nil, fmt.Errorf("lease suite: %w", err)
	}
	ps = &parsedSweep{spec: spec, suite: suite}
	w.mu.Lock()
	w.specs[key] = ps
	w.mu.Unlock()
	return ps, nil
}

func (w *Worker) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("list", resp)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// httpError folds a non-2xx response (and its error envelope, if any) into
// an error value.
func httpError(op string, resp *http.Response) error {
	data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	var env api.ErrorEnvelope
	if json.Unmarshal(data, &env) == nil && env.Error.Message != "" {
		return fmt.Errorf("cluster %s: %s (%s): %s", op, resp.Status, env.Error.Code, env.Error.Message)
	}
	return fmt.Errorf("cluster %s: %s", op, resp.Status)
}

// attachRequest is the wire form of POST /v1/cluster/attach.
type attachRequest struct {
	Coordinator string `json:"coordinator"`
}

// AttachHandler serves POST /v1/cluster/attach: an ad-hoc coordinator (e.g.
// `cfsmdiag sweep -distributed -workers-urls=...` with its embedded
// coordinator) introduces itself to a running worker, which starts polling
// it for leases.
func (w *Worker) AttachHandler() http.Handler {
	return http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			api.WriteError(rw, http.StatusMethodNotAllowed, api.CodeMethodNotAllowed,
				fmt.Errorf("method %s not allowed on %s", r.Method, r.URL.Path))
			return
		}
		var req attachRequest
		if err := decodeBody(rw, r, &req); err != nil {
			api.WriteError(rw, http.StatusBadRequest, api.CodeBadRequest, err)
			return
		}
		if req.Coordinator == "" {
			api.WriteError(rw, http.StatusBadRequest, api.CodeBadRequest,
				fmt.Errorf("coordinator URL required"))
			return
		}
		w.Attach(req.Coordinator)
		api.WriteJSON(rw, http.StatusOK, map[string]any{
			"worker":       w.cfg.Name,
			"coordinators": w.Coordinators(),
		})
	})
}
