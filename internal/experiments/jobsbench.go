package experiments

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/jobs"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
)

// JobsBenchOptions configures experiment E13: the batch job queue's
// throughput and cache behavior over the Figure 1 mutant space.
type JobsBenchOptions struct {
	// Jobs is the total number of submissions (default 500). The first
	// Unique submissions carry distinct payloads; the rest are seeded
	// duplicate draws that must short-circuit through the result cache.
	Jobs int
	// Unique caps the distinct payloads (default: the Figure 1 mutant count;
	// values above the mutant count are clamped).
	Unique int
	// Workers sizes the pool (<=0 selects runtime.GOMAXPROCS(0)).
	Workers int
	// Seed drives the duplicate-draw schedule (default 1).
	Seed int64
	// Registry optionally receives the cfsmdiag_jobs_* metrics.
	Registry *obs.Registry
}

// JobsBenchRecord is the machine-readable record emitted by `cfsmdiag jobs
// bench` (BENCH_jobs.json). Cold numbers cover the unique submissions that
// actually diagnose a mutant; cached numbers cover the duplicate submissions
// answered from the content-addressed result cache.
type JobsBenchRecord struct {
	System     string `json:"system"`
	Mutants    int    `json:"mutants"`
	Jobs       int    `json:"jobs"`
	Unique     int    `json:"unique"`
	Duplicates int    `json:"duplicates"`
	Workers    int    `json:"workers"`
	GoMaxProcs int    `json:"gomaxprocs"`
	Seed       int64  `json:"seed"`

	CacheHits        int64   `json:"cache_hits"`
	ColdMS           float64 `json:"cold_ms"`
	ColdJobsPerSec   float64 `json:"cold_jobs_per_sec"`
	CachedMS         float64 `json:"cached_ms"`
	CachedJobsPerSec float64 `json:"cached_jobs_per_sec"`
	CacheSpeedup     float64 `json:"cache_speedup"`

	MeanWaitMS float64 `json:"mean_wait_ms"`
	MeanRunMS  float64 `json:"mean_run_ms"`
}

// jobsBenchPayload is the diagnose-job payload used by the bench executor:
// an index into the Figure 1 fault enumeration.
type jobsBenchPayload struct {
	Mutant int `json:"mutant"`
}

// RunJobsBench runs experiment E13: it opens an in-memory jobs.Manager whose
// executor performs a real mutant diagnosis (the same per-mutant work as the
// E5 sweep), submits Unique distinct payloads followed by seeded duplicates,
// and measures cold throughput, cached throughput and queue latencies. Every
// duplicate must be served as a cache hit; anything else is an error.
func RunJobsBench(opts JobsBenchOptions) (JobsBenchRecord, error) {
	if opts.Jobs <= 0 {
		opts.Jobs = 500
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	faults := fault.Enumerate(spec)
	unique := opts.Unique
	if unique <= 0 || unique > len(faults) {
		unique = len(faults)
	}
	if unique > opts.Jobs {
		unique = opts.Jobs
	}

	rec := JobsBenchRecord{
		System:     "figure1",
		Mutants:    len(faults),
		Jobs:       opts.Jobs,
		Unique:     unique,
		Duplicates: opts.Jobs - unique,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Seed:       opts.Seed,
	}

	// Executors run concurrently: they share the compiled program and suite
	// and build their own worker state per job.
	prog, err := compiled.Compile(spec)
	if err != nil {
		return rec, err
	}
	csuite := compiled.NewSuite(prog, suite)
	exec := func(ctx context.Context, payload json.RawMessage) (json.RawMessage, error) {
		var p jobsBenchPayload
		if err := json.Unmarshal(payload, &p); err != nil {
			return nil, err
		}
		if p.Mutant < 0 || p.Mutant >= len(faults) {
			return nil, fmt.Errorf("mutant index %d out of range [0,%d)", p.Mutant, len(faults))
		}
		f := faults[p.Mutant]
		ov, ok := prog.OverlayFor(f)
		if !ok {
			return nil, fmt.Errorf("fault %s has no overlay", f.Describe(spec))
		}
		budget := int64(0)
		report, err := newSweepWorker(prog, csuite, nil).diagnose(ctx, spec, suite, f, ov, SweepOptions{}, &budget)
		if err != nil {
			return nil, err
		}
		return json.Marshal(map[string]any{
			"outcome":         report.Outcome.String(),
			"additionalTests": report.AdditionalTests,
		})
	}
	mgr, err := jobs.Open(jobs.Config{
		Workers:    opts.Workers,
		QueueDepth: opts.Jobs + 1, // the bench never exercises admission control
		CacheSize:  unique,
		Registry:   opts.Registry,
	}, map[string]jobs.Executor{"diagnose": exec})
	if err != nil {
		return rec, err
	}
	rec.Workers = mgr.Workers()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		mgr.Close(ctx)
	}()

	payloads := make([]json.RawMessage, unique)
	for i := range payloads {
		b, err := json.Marshal(jobsBenchPayload{Mutant: i})
		if err != nil {
			return rec, err
		}
		payloads[i] = b
	}

	// Cold phase: every payload is new, so every submission runs a diagnosis.
	coldStart := time.Now()
	for _, p := range payloads {
		if _, err := mgr.Submit(jobs.SubmitRequest{Kind: "diagnose", Payload: p}); err != nil {
			return rec, err
		}
	}
	waitCtx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	if err := mgr.WaitIdle(waitCtx); err != nil {
		return rec, fmt.Errorf("cold phase: %w", err)
	}
	cold := time.Since(coldStart)
	rec.ColdMS = float64(cold.Microseconds()) / 1e3
	rec.ColdJobsPerSec = float64(unique) / cold.Seconds()

	var wait, run time.Duration
	for _, j := range mgr.List() {
		if j.State != jobs.StateSucceeded {
			return rec, fmt.Errorf("cold job %s: state %s (%s)", j.ID, j.State, j.Error)
		}
		wait += j.Wait()
		run += j.Run()
	}
	rec.MeanWaitMS = float64(wait.Microseconds()) / 1e3 / float64(unique)
	rec.MeanRunMS = float64(run.Microseconds()) / 1e3 / float64(unique)

	// Cached phase: seeded duplicate draws; each must return an already
	// terminal job without touching the worker pool.
	rng := rand.New(rand.NewSource(opts.Seed))
	cachedStart := time.Now()
	for i := 0; i < rec.Duplicates; i++ {
		j, err := mgr.Submit(jobs.SubmitRequest{Kind: "diagnose", Payload: payloads[rng.Intn(unique)]})
		if err != nil {
			return rec, err
		}
		if !j.Cached {
			return rec, fmt.Errorf("duplicate submission %d (job %s) missed the cache", i, j.ID)
		}
	}
	cached := time.Since(cachedStart)
	rec.CachedMS = float64(cached.Microseconds()) / 1e3
	if rec.Duplicates > 0 && cached > 0 {
		rec.CachedJobsPerSec = float64(rec.Duplicates) / cached.Seconds()
		perCold := cold.Seconds() / float64(unique)
		perCached := cached.Seconds() / float64(rec.Duplicates)
		if perCached > 0 {
			rec.CacheSpeedup = perCold / perCached
		}
	}
	rec.CacheHits = mgr.Stats().CacheHits
	if rec.CacheHits != int64(rec.Duplicates) {
		return rec, fmt.Errorf("cache hits = %d, want %d", rec.CacheHits, rec.Duplicates)
	}
	return rec, nil
}
