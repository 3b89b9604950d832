package experiments

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// MutantOutcome classifies the diagnosis of one mutant in a sweep.
type MutantOutcome int

// Sweep outcome classes.
const (
	// OutcomeUndetected: the initial suite produced no symptom.
	OutcomeUndetected MutantOutcome = iota + 1
	// OutcomeLocalizedCorrect: the verdict named the faulty transition (the
	// paper's guarantee is transition-level localization; the ExactFault
	// flag of the report records whether the fault detail matched too).
	OutcomeLocalizedCorrect
	// OutcomeLocalizedEquivalent: the verdict named a different transition,
	// but injecting the diagnosed fault is observationally equivalent to
	// the true mutant — indistinguishable by any test.
	OutcomeLocalizedEquivalent
	// OutcomeLocalizedWrong: the verdict named a non-equivalent wrong fault.
	OutcomeLocalizedWrong
	// OutcomeAmbiguousContainsTruth: several hypotheses remain, the faulty
	// transition among them.
	OutcomeAmbiguousContainsTruth
	// OutcomeAmbiguousMissesTruth: several hypotheses remain, none naming
	// the faulty transition.
	OutcomeAmbiguousMissesTruth
	// OutcomeInconsistent: the algorithm declared the observations outside
	// the fault model — a defect for an in-model mutant.
	OutcomeInconsistent
)

// String names the outcome.
func (o MutantOutcome) String() string {
	switch o {
	case OutcomeUndetected:
		return "undetected"
	case OutcomeLocalizedCorrect:
		return "localized-correct"
	case OutcomeLocalizedEquivalent:
		return "localized-equivalent"
	case OutcomeLocalizedWrong:
		return "localized-wrong"
	case OutcomeAmbiguousContainsTruth:
		return "ambiguous-contains-truth"
	case OutcomeAmbiguousMissesTruth:
		return "ambiguous-misses-truth"
	case OutcomeInconsistent:
		return "inconsistent"
	default:
		return fmt.Sprintf("MutantOutcome(%d)", int(o))
	}
}

// MutantReport is the sweep record for one mutant.
type MutantReport struct {
	Fault           fault.Fault
	Outcome         MutantOutcome
	AdditionalTests int
	AdditionalIn    int
	// ExactFault is set when the diagnosed fault matched the injected one
	// exactly (kind, output and next state), not just the transition.
	ExactFault bool
	// EquivalentToSpec is set for undetected mutants that are provably
	// indistinguishable from the specification (no test suite could detect
	// them).
	EquivalentToSpec bool
}

// SweepResult aggregates a sweep (experiment E5).
type SweepResult struct {
	Spec    *cfsm.System
	Suite   []cfsm.TestCase
	Reports []MutantReport
	Counts  map[MutantOutcome]int
	// UndetectedEquivalent counts undetected mutants that are equivalent to
	// the specification, i.e. inherently undetectable.
	UndetectedEquivalent int
	// TotalAdditionalTests and TotalAdditionalInputs accumulate the
	// adaptive phase's cost over all detected mutants.
	TotalAdditionalTests  int
	TotalAdditionalInputs int
	Detected              int
}

// SweepOptions configures a sweep run.
type SweepOptions struct {
	// CheckEquivalence controls whether undetected and wrongly-localized
	// mutants are checked for observational equivalence (quadratic-ish;
	// disable in benchmarks).
	CheckEquivalence bool
	// Workers is the number of goroutines diagnosing mutants concurrently.
	// Zero or negative selects runtime.GOMAXPROCS(0). Workers == 1 runs the
	// exact historical serial path. Any worker count produces a
	// byte-identical SweepResult: reports stay in fault-enumeration order
	// and every count is merged deterministically.
	Workers int
	// Registry receives the sweep's telemetry (per-mutant latency histogram,
	// busy-worker gauge, outcome counters, whole-sweep duration). Nil — the
	// default — disables instrumentation.
	Registry *obs.Registry
	// Trace, when non-nil, records a structured trace for the first
	// TraceFailures mutants whose suite run reveals a symptom (a "failing"
	// IUT): each such mutant's diagnosis is re-run with core.WithTrace inside
	// a sweep.mutant span. The tracer is shared by all workers (it is safe
	// for concurrent use); under a parallel sweep the traced mutants are the
	// first N to finish, and spans from different mutants may interleave.
	Trace *trace.Tracer
	// TraceFailures caps how many failing mutants are traced. Zero with a
	// non-nil Trace means 1.
	TraceFailures int
}

// Metric families of the sweep engine.
const (
	metricSweepDuration  = "cfsmdiag_sweep_duration_seconds"
	metricSweepMutant    = "cfsmdiag_sweep_mutant_seconds"
	metricSweepMutants   = "cfsmdiag_sweep_mutants_total"
	metricSweepBusy      = "cfsmdiag_sweep_workers_busy"
	metricSweepWorkers   = "cfsmdiag_sweep_workers"
	metricSweepAddlTests = "cfsmdiag_sweep_additional_tests_total"
)

// sweepMetrics bundles the sweep's pre-resolved handles; all nil-safe.
type sweepMetrics struct {
	reg      *obs.Registry
	duration *obs.Histogram
	mutant   *obs.Histogram
	busy     *obs.Gauge
	workers  *obs.Gauge
	addl     *obs.Counter
}

func newSweepMetrics(r *obs.Registry) sweepMetrics {
	if r == nil {
		return sweepMetrics{}
	}
	return sweepMetrics{
		reg:      r,
		duration: r.Histogram(metricSweepDuration, "Wall time of whole mutant sweeps.", obs.DefaultLatencyBuckets),
		mutant:   r.Histogram(metricSweepMutant, "Per-mutant diagnosis latency within a sweep.", obs.DefaultLatencyBuckets),
		busy:     r.Gauge(metricSweepBusy, "Sweep workers currently diagnosing a mutant (utilization against cfsmdiag_sweep_workers)."),
		workers:  r.Gauge(metricSweepWorkers, "Configured worker count of the most recent sweep."),
		addl:     r.Counter(metricSweepAddlTests, "Additional diagnostic tests generated across swept mutants."),
	}
}

// RegisterSweepMetrics pre-registers the sweep's metric families on a
// registry so an exposition endpoint lists them before the first sweep runs.
// No-op on nil.
func RegisterSweepMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	newSweepMetrics(r)
	for o := OutcomeUndetected; o <= OutcomeInconsistent; o++ {
		r.Counter(metricSweepMutants, "Swept mutants by diagnosis outcome.", obs.L("outcome", o.String()))
	}
}

// observe records one mutant's outcome and latency.
func (m sweepMetrics) observe(report MutantReport, elapsed time.Duration) {
	if m.reg == nil {
		return
	}
	m.mutant.Observe(elapsed.Seconds())
	m.addl.Add(int64(report.AdditionalTests))
	m.reg.Counter(metricSweepMutants, "Swept mutants by diagnosis outcome.",
		obs.L("outcome", report.Outcome.String())).Inc()
}

func (o SweepOptions) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// RunSweep injects every single-transition fault into the specification,
// executes the given initial suite against each mutant, runs the full
// diagnosis and classifies the result (experiment E5). It parallelizes over
// runtime.GOMAXPROCS(0) workers; the result is identical to a serial run.
// checkEquivalence is as in SweepOptions.
func RunSweep(spec *cfsm.System, suite []cfsm.TestCase, checkEquivalence bool) (SweepResult, error) {
	return RunSweepOpts(spec, suite, SweepOptions{CheckEquivalence: checkEquivalence})
}

// RunSweepOpts is RunSweep with explicit worker and equivalence options.
//
// The mutant space is embarrassingly parallel: the specification and suite
// are shared read-only (see the cfsm.System concurrency guarantee) and each
// mutant's diagnosis is independent. Mutant systems are built inside the
// workers, one fault at a time, so the sweep never materializes the full
// mutant set. The first diagnosis error — in fault-enumeration order, as in
// the serial run — cancels the remaining work and is returned with the
// deterministic prefix of reports that precede the failing mutant.
func RunSweepOpts(spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions) (SweepResult, error) {
	return RunSweepContext(context.Background(), spec, suite, opts)
}

// RunSweepContext is RunSweepOpts with cancellation: canceling the context
// stops the worker dispatch, aborts in-flight diagnoses at their next oracle
// boundary, and returns ctx.Err() together with the deterministic prefix of
// reports completed before the cancellation.
func RunSweepContext(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions) (SweepResult, error) {
	return runSweepFaults(ctx, spec, suite, fault.Enumerate(spec), opts)
}

// RunSweepRange diagnoses the faults with enumeration indices in [lo, hi) —
// the deterministic fault.Enumerate order — and returns their reports in that
// order. It is the unit of work of the distributed sweep: a cluster worker
// runs one range per lease, and concatenating the reports of the ranges
// [0,k), [k,2k), … reproduces a whole-space sweep byte for byte (the merge
// itself is MergeReports). Out-of-range bounds are clamped; an inverted
// range is empty.
func RunSweepRange(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, opts SweepOptions, lo, hi int) ([]MutantReport, error) {
	faults := fault.Enumerate(spec)
	if lo < 0 {
		lo = 0
	}
	if hi > len(faults) {
		hi = len(faults)
	}
	if lo >= hi {
		return nil, nil
	}
	res, err := runSweepFaults(ctx, spec, suite, faults[lo:hi], opts)
	return res.Reports, err
}

// MergeReports folds per-mutant reports — already in fault-enumeration
// order — into the aggregate SweepResult, exactly as the local sweep loop
// does. The cluster coordinator uses it to merge worker-pushed ranges into a
// result byte-identical to a single-process sweep.
func MergeReports(spec *cfsm.System, suite []cfsm.TestCase, reports []MutantReport) SweepResult {
	res := SweepResult{
		Spec:   spec,
		Suite:  suite,
		Counts: make(map[MutantOutcome]int),
	}
	for _, r := range reports {
		res.add(r)
	}
	return res
}

// runSweepFaults is the sweep engine over an explicit fault list: the whole
// enumeration for the local sweep, one contiguous range for a cluster worker.
func runSweepFaults(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, faults []fault.Fault, opts SweepOptions) (SweepResult, error) {
	res := SweepResult{
		Spec:   spec,
		Suite:  suite,
		Counts: make(map[MutantOutcome]int),
	}
	met := newSweepMetrics(opts.Registry)
	traceBudget := int64(0)
	if opts.Trace != nil {
		traceBudget = int64(opts.TraceFailures)
		if traceBudget <= 0 {
			traceBudget = 1
		}
	}
	workers := opts.workers()
	met.workers.Set(int64(workers))
	sweepStart := time.Now()
	defer func() { met.duration.Observe(time.Since(sweepStart).Seconds()) }()

	// Lower the specification and the test suite once — expected
	// observations, symptom transitions and conflict prefixes precomputed —
	// and share the immutable results across workers; every mutant is a
	// one-cell table overlay on the worker's oracle runner, never a cloned
	// system, and no mutant re-simulates the specification.
	prog, err := compiled.Compile(spec)
	if err != nil {
		return res, err
	}
	csuite := compiled.NewSuite(prog, suite)

	if workers == 1 {
		w := newSweepWorker(prog, csuite, opts.Registry)
		for _, f := range faults {
			ov, ok := prog.OverlayFor(f)
			if !ok {
				continue // mirrors fault.ForEachMutant's apply-skip
			}
			if err := ctx.Err(); err != nil {
				return res, err
			}
			met.busy.Inc()
			start := time.Now()
			report, err := w.diagnose(ctx, spec, suite, f, ov, opts, &traceBudget)
			met.busy.Dec()
			if err != nil {
				if ctxErr := ctx.Err(); ctxErr != nil {
					return res, ctxErr
				}
				return res, err
			}
			met.observe(report, time.Since(start))
			res.add(report)
		}
		return res, nil
	}

	type outcome struct {
		done    bool // the job ran (diagnosed, failed, or apply-skipped)
		skipped bool // fault could not be applied; mirrors ForEachMutant's skip
		report  MutantReport
		err     error
	}
	results := make([]outcome, len(faults))
	wctx, cancel := context.WithCancel(ctx)
	defer cancel()
	jobs := make(chan int)
	go func() {
		defer close(jobs)
		for i := range faults {
			select {
			case jobs <- i:
			case <-wctx.Done():
				return
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Per-worker engine and oracle runner over the shared program:
			// both reuse scratch buffers and must not cross goroutines.
			w := newSweepWorker(prog, csuite, opts.Registry)
			for idx := range jobs {
				ov, ok := prog.OverlayFor(faults[idx])
				if !ok {
					// Mirrors the skip in fault.ForEachMutant; cannot happen
					// for Enumerate's output.
					results[idx] = outcome{done: true, skipped: true}
					continue
				}
				met.busy.Inc()
				start := time.Now()
				report, err := w.diagnose(wctx, spec, suite, faults[idx], ov, opts, &traceBudget)
				met.busy.Dec()
				// Each worker writes only its own index; no lock needed.
				results[idx] = outcome{done: true, report: report, err: err}
				if err != nil {
					cancel()
					return
				}
				met.observe(report, time.Since(start))
			}
		}()
	}
	wg.Wait()

	// Deterministic merge in fault-enumeration order. Jobs are dispatched in
	// index order, so when a worker errored every lower-index job has
	// completed: the loop below reproduces exactly the serial prefix and the
	// serial first-error. On external cancellation the contiguous completed
	// prefix is merged and ctx.Err() returned.
	for i := range results {
		if !results[i].done {
			break // job never ran: external cancellation hole
		}
		if results[i].skipped {
			continue
		}
		if results[i].err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return res, ctxErr
			}
			return res, results[i].err
		}
		res.add(results[i].report)
	}
	if err := ctx.Err(); err != nil {
		return res, err
	}
	return res, nil
}

// add folds one mutant report into the aggregate, exactly as the historical
// serial loop did.
func (res *SweepResult) add(report MutantReport) {
	if report.Outcome == OutcomeUndetected {
		if report.EquivalentToSpec {
			res.UndetectedEquivalent++
		}
	} else {
		res.Detected++
		res.TotalAdditionalTests += report.AdditionalTests
		res.TotalAdditionalInputs += report.AdditionalIn
	}
	res.Counts[report.Outcome]++
	res.Reports = append(res.Reports, report)
}

// sweepWorker is one worker's execution state over the shared program: a
// compiled engine with the shared suite installed, and the oracle runner
// that realizes each mutant as an overlay. eng is nil when the
// specification's configuration space does not pack; core then diagnoses on
// its interpreted engine.
type sweepWorker struct {
	eng    *compiled.Engine
	oracle *compiled.Runner
	// engine selects eng for core (empty when eng is nil); opts adds the
	// sweep's registry.
	engine []core.Option
	opts   []core.Option
}

func newSweepWorker(prog *compiled.Program, csuite *compiled.Suite, reg *obs.Registry) sweepWorker {
	w := sweepWorker{oracle: prog.NewRunner()}
	if eng, err := compiled.EngineFor(prog); err == nil {
		eng.SetSuite(csuite)
		w.eng = eng
		w.engine = []core.Option{core.WithEngine(eng)}
	}
	w.opts = append([]core.Option{core.WithRegistry(reg)}, w.engine...)
	return w
}

// diagnose runs the full Steps 1–6 diagnosis of the mutant realized by f
// (lowered to ov) against the specification and classifies the outcome.
// spec and suite are read-only, so workers may call it concurrently, each
// on its own sweepWorker.
func (w sweepWorker) diagnose(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, f fault.Fault, ov compiled.Overlay, opts SweepOptions, traceBudget *int64) (MutantReport, error) {
	report := MutantReport{Fault: f}
	w.oracle.SetOverlay(ov)
	oracle := &compiled.Oracle{R: w.oracle}
	loc, err := core.DiagnoseContext(ctx, spec, suite, oracle, w.opts...)
	if err != nil {
		return report, fmt.Errorf("diagnose %s: %w", f.Describe(spec), err)
	}
	report.AdditionalTests = oracle.Tests - len(suite)
	report.AdditionalIn = oracle.Inputs
	var equiv func(*fault.Fault) bool
	if opts.CheckEquivalence {
		equiv = func(diagnosed *fault.Fault) bool { return w.equivalent(spec, diagnosed, f) }
	}
	classifyOutcome(loc, f, &report, equiv)
	if opts.Trace != nil && report.Outcome != OutcomeUndetected && atomic.AddInt64(traceBudget, -1) >= 0 {
		w.traceMutant(ctx, spec, suite, f, report.Outcome, opts.Trace)
	}
	return report, nil
}

// equivalent reports whether the mutants realized by a (nil for the
// specification itself) and b are observationally equivalent: on the
// worker's compiled engine, or by the interpreted product search when the
// specification does not pack.
func (w sweepWorker) equivalent(spec *cfsm.System, a *fault.Fault, b fault.Fault) bool {
	if w.eng != nil {
		return w.eng.Equivalent(a, &b)
	}
	sa := spec
	var errA error
	if a != nil {
		sa, errA = a.Apply(spec)
	}
	sb, errB := b.Apply(spec)
	return errA == nil && errB == nil && testgen.SystemsEquivalent(sa, sb)
}

// classifyOutcome folds a localization verdict into the report. equiv, when
// non-nil, decides whether the mutant realized by a diagnosed fault (nil:
// the specification itself) is observationally equivalent to the injected
// one; it marks undetected mutants equivalent to the specification and
// wrong localizations equivalent to the truth.
func classifyOutcome(loc *core.Localization, injected fault.Fault, report *MutantReport, equiv func(diagnosed *fault.Fault) bool) {
	switch loc.Verdict {
	case core.VerdictNoFault:
		report.Outcome = OutcomeUndetected
		if equiv != nil {
			report.EquivalentToSpec = equiv(nil)
		}
	case core.VerdictLocalized:
		switch {
		case loc.Fault.Ref == injected.Ref:
			report.Outcome = OutcomeLocalizedCorrect
			report.ExactFault = *loc.Fault == injected
		default:
			report.Outcome = OutcomeLocalizedWrong
			if equiv != nil && equiv(loc.Fault) {
				report.Outcome = OutcomeLocalizedEquivalent
			}
		}
	case core.VerdictAmbiguous:
		report.Outcome = OutcomeAmbiguousMissesTruth
		for _, r := range loc.Remaining {
			if r.Ref == injected.Ref {
				report.Outcome = OutcomeAmbiguousContainsTruth
				break
			}
		}
	default:
		report.Outcome = OutcomeInconsistent
	}
}

// traceMutant re-runs one detected mutant's diagnosis with structured
// tracing enabled, inside a sweep.mutant span; the worker's oracle runner
// still carries the mutant's overlay. The diagnosis is deterministic, so the
// re-run repeats exactly the result just classified; tracing the second pass
// keeps the tracer entirely off the untraced mutants' path.
func (w sweepWorker) traceMutant(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, f fault.Fault, out MutantOutcome, tr *trace.Tracer) {
	span := tr.Begin(trace.KindSweepMutant,
		trace.A("fault", f.Describe(spec)),
		trace.A("outcome", out.String()))
	opts := append([]core.Option{core.WithTrace(tr)}, w.engine...)
	if _, err := core.DiagnoseContext(ctx, spec, suite, &compiled.Oracle{R: w.oracle}, opts...); err != nil {
		span.End(trace.A("error", err.Error()))
		return
	}
	span.End()
}
