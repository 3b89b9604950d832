package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/server"
)

// This file is experiment E16: the committed load benchmark. It stands up
// the real HTTP service in-process (full middleware chain, jobs manager,
// WAL, tenant admission — everything but the network between two
// machines), drives the paper's Figure 1 workload up a rate ladder with
// the open-loop generator, and reports the saturation knee. The committed
// BENCH_load.json is this run's Record; CI re-runs it and gates on the
// committed numbers (see Gate).
//
// Each ladder step gets a fresh server. An open-loop generator keeps
// offering work to a saturated server, so a shared server would carry one
// step's queue backlog into the next and the upper steps would measure the
// backlog, not the rate. Fresh state per step keeps every step's report a
// function of its own offered rate — the property that makes the knee a
// knee.

// BenchOptions tunes E16. The zero value (plus a seed) reproduces the
// committed record.
type BenchOptions struct {
	Seed int64
	// Rates is the offered-rate ladder; empty selects DefaultRates.
	Rates []float64
	// StepDuration bounds each step's arrival window; 0 selects
	// DefaultStepDuration.
	StepDuration time.Duration
	// Workers sizes the jobs worker pool; 0 selects 2.
	Workers int
	// Tenants spreads submissions; 0 selects 4.
	Tenants int
	// TenantRate enables per-tenant fair admission on the server under
	// test (submissions per second per tenant); 0 disables.
	TenantRate  float64
	TenantBurst int
	// Mix weights the classes; zero selects DefaultMix.
	Mix Mix
	// SLO decides the knee; zero selects DefaultSLO.
	SLO SLO
}

// paperSuiteDoc renders the paper's test suite in wire form, with the
// first case renamed by tag when non-empty (a payload-uniqueness knob:
// batch sweeps must not collide in the content-addressed result cache).
func paperSuiteDoc(tag string) []cfsm.CaseJSON {
	out := cfsm.EncodeSuite(paper.TestSuite())
	if tag != "" {
		out[0].Name += "-" + tag
	}
	return out
}

// PaperWorkload builds the Factory for the Figure 1 workload:
//
//   - interactive: POST /v1/diagnose of the faulty implementation against
//     the spec with the paper's suite — the full localize-and-confirm
//     pipeline per request.
//   - batch: POST /v1/jobs sweep submissions, payload made unique per
//     arrival so every one is real queued work.
//   - cachehit: POST /v1/jobs duplicate diagnose submissions of one fixed
//     payload — after the first completes they answer from the result
//     cache without consuming a worker.
func PaperWorkload() (Factory, error) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		return nil, fmt.Errorf("paper workload: %w", err)
	}
	specRaw, err := json.Marshal(spec)
	if err != nil {
		return nil, fmt.Errorf("paper workload: marshal spec: %w", err)
	}
	iutRaw, err := json.Marshal(iut)
	if err != nil {
		return nil, fmt.Errorf("paper workload: marshal iut: %w", err)
	}
	diagnoseDoc := map[string]any{
		"spec":  json.RawMessage(specRaw),
		"iut":   json.RawMessage(iutRaw),
		"suite": paperSuiteDoc(""),
	}
	interactiveBody, err := json.Marshal(diagnoseDoc)
	if err != nil {
		return nil, fmt.Errorf("paper workload: %w", err)
	}
	return func(class Class, tenant string, seq int) Request {
		switch class {
		case ClassBatch:
			body, _ := json.Marshal(map[string]any{
				"kind":     "sweep",
				"priority": "batch",
				"tenant":   tenant,
				"request": map[string]any{
					"spec":    json.RawMessage(specRaw),
					"suite":   paperSuiteDoc(strconv.Itoa(seq)),
					"workers": 1,
				},
			})
			return Request{Method: http.MethodPost, Path: "/v1/jobs", Body: body}
		case ClassCacheHit:
			body, _ := json.Marshal(map[string]any{
				"kind":    "diagnose",
				"tenant":  tenant,
				"request": diagnoseDoc,
			})
			return Request{Method: http.MethodPost, Path: "/v1/jobs", Body: body}
		default:
			return Request{Method: http.MethodPost, Path: "/v1/diagnose", Body: interactiveBody}
		}
	}, nil
}

// RunBench runs E16 and returns the Record for BENCH_load.json.
func RunBench(ctx context.Context, opts BenchOptions) (*Record, error) {
	rates := opts.Rates
	if len(rates) == 0 {
		rates = DefaultRates
	}
	stepDur := opts.StepDuration
	if stepDur <= 0 {
		stepDur = DefaultStepDuration
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = 2
	}
	tenants := opts.Tenants
	if tenants <= 0 {
		tenants = 4
	}
	slo := opts.SLO
	if slo == (SLO{}) {
		slo = DefaultSLO
	}
	factory, err := PaperWorkload()
	if err != nil {
		return nil, err
	}

	rec := &Record{
		Experiment: "e16_load",
		System:     "paper_figure1",
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       opts.Seed,
		Workers:    workers,
		TenantRate: opts.TenantRate,
		Tenants:    tenants,
		SLO:        slo,
	}
	for _, rate := range rates {
		report, err := runBenchStep(ctx, opts, factory, workers, tenants, rate, stepDur)
		if err != nil {
			return nil, fmt.Errorf("bench step %g req/s: %w", rate, err)
		}
		rec.Steps = append(rec.Steps, report)
		if slo.met(report) {
			rec.KneeRate = rate
			rec.Knee = report
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
	}
	return rec, nil
}

// runBenchStep stands up a fresh in-process server and drives one rate.
func runBenchStep(ctx context.Context, opts BenchOptions, factory Factory, workers, tenants int, rate float64, stepDur time.Duration) (*Report, error) {
	dir, err := os.MkdirTemp("", "cfsmdiag-loadbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	svc, err := server.NewService(server.Config{
		RequestTimeout:  10 * time.Second,
		EnableJobs:      true,
		JobsDir:         dir,
		JobsWorkers:     workers,
		JobsQueueDepth:  512,
		JobsTenantRate:  opts.TenantRate,
		JobsTenantBurst: opts.TenantBurst,
	})
	if err != nil {
		return nil, err
	}

	// A real listener and http.Server rather than httptest: this is
	// production code, and importing net/http/httptest outside tests drags
	// its flag registrations into every binary that links this package.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		closeCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		svc.Close(closeCtx)
		cancel()
		return nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	serveDone := make(chan struct{})
	go func() {
		hs.Serve(ln)
		close(serveDone)
	}()

	report, runErr := Run(ctx, Config{
		BaseURL:     "http://" + ln.Addr().String(),
		Seed:        opts.Seed,
		Rate:        rate,
		Duration:    stepDur,
		Mix:         opts.Mix,
		Tenants:     tenants,
		MaxInFlight: 512,
		Client:      &http.Client{Timeout: 15 * time.Second},
		Factory:     factory,
	})

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	hs.Shutdown(shutCtx)
	svc.Close(shutCtx)
	cancel()
	<-serveDone
	return report, runErr
}
