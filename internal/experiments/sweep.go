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
	Fault   fault.Fault
	Outcome MutantOutcome
	// AdditionalTests counts the tests Step 6 ran beyond the initial suite.
	AdditionalTests int
	// AdditionalIn counts every input the mutant's oracle ran: the initial
	// suite's inputs as well as Step 6's.
	AdditionalIn int
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
	// TotalAdditionalTests accumulates the adaptive tests Step 6 ran over
	// all detected mutants. TotalAdditionalInputs accumulates their
	// MutantReport.AdditionalIn: every input each oracle ran, the initial
	// suite's included, so the adaptive phase's share is this total minus
	// Detected times the suite's input count.
	TotalAdditionalTests  int
	TotalAdditionalInputs int
	Detected              int
}

// Summary is the wire form of a sweep's outcome table: the sweep-job result
// and the cluster sweep status both carry it.
type Summary struct {
	Mutants              int            `json:"mutants"`
	Detected             int            `json:"detected"`
	Outcomes             map[string]int `json:"outcomes"`
	UndetectedEquivalent int            `json:"undetectedEquivalent,omitempty"`
	AdditionalTests      int            `json:"additionalTests"`
	// AdditionalInputs is SweepResult.TotalAdditionalInputs: it counts the
	// initial suite's inputs too, once per detected mutant.
	AdditionalInputs int `json:"additionalInputs"`
	SuiteCases       int `json:"suiteCases"`
}

// Summary renders the result as its wire summary.
func (r *SweepResult) Summary() Summary {
	s := Summary{
		Mutants:              len(r.Reports),
		Detected:             r.Detected,
		Outcomes:             make(map[string]int, len(r.Counts)),
		UndetectedEquivalent: r.UndetectedEquivalent,
		AdditionalTests:      r.TotalAdditionalTests,
		AdditionalInputs:     r.TotalAdditionalInputs,
		SuiteCases:           len(r.Suite),
	}
	for o, n := range r.Counts {
		s.Outcomes[o.String()] = n
	}
	return s
}

// SweepOptions configures a sweep run.
type SweepOptions struct {
	// CheckEquivalence controls whether undetected and wrongly-localized
	// mutants are checked for observational equivalence (quadratic-ish;
	// disable in benchmarks).
	CheckEquivalence bool
	// Workers is the number of goroutines diagnosing mutants concurrently.
	// Zero or negative selects runtime.GOMAXPROCS(0). Every worker count
	// runs the same loop and produces a byte-identical SweepResult: reports
	// stay in fault-enumeration order and every count is merged
	// deterministically.
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
// mutant's diagnosis is independent. Each mutant is realized inside a
// worker as a one-cell overlay on the shared compiled program, so the sweep
// never materializes a mutant system. The first diagnosis error — in
// fault-enumeration order, as in a serial run — stops the remaining work and
// is returned with the deterministic prefix of reports that precede the
// failing mutant.
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
// order — into the aggregate SweepResult; the result's Reports is the given
// slice. The local sweep builds its result with it, and the cluster
// coordinator merges worker-pushed ranges with it into a result
// byte-identical to a single-process sweep.
func MergeReports(spec *cfsm.System, suite []cfsm.TestCase, reports []MutantReport) SweepResult {
	res := SweepResult{
		Spec:    spec,
		Suite:   suite,
		Reports: reports,
		Counts:  make(map[MutantOutcome]int),
	}
	for _, report := range reports {
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
	}
	return res
}

// runSweepFaults is the sweep engine over an explicit fault list: the whole
// enumeration for the local sweep, one contiguous range for a cluster worker.
func runSweepFaults(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, faults []fault.Fault, opts SweepOptions) (SweepResult, error) {
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

	reports, err := mapMutants(ctx, spec, suite, faults, workers, opts.Registry,
		func(ctx context.Context, w sweepWorker, f fault.Fault) (MutantReport, error) {
			met.busy.Inc()
			start := time.Now()
			report, err := w.report(ctx, f, opts, &traceBudget)
			met.busy.Dec()
			if err == nil {
				met.observe(report, time.Since(start))
			}
			return report, err
		})
	return MergeReports(spec, suite, reports), err
}

// mapOrdered runs fn over the jobs 0..n-1 on min(workers, n) goroutines,
// the caller's among them, each holding its own state from newWorker, and
// returns the results in job order, leaving out the jobs fn reports as
// skipped (ok=false). Workers claim jobs in index order and stop claiming at
// the first error or once ctx is done; a claimed job always runs to
// completion. So whatever the worker count, the result is the serial one:
// the first error in index order wins with the results before it, and on
// cancellation the completed prefix comes back with ctx.Err().
func mapOrdered[W, T any](ctx context.Context, n, workers int, newWorker func() W, fn func(ctx context.Context, w W, i int) (T, bool, error)) ([]T, error) {
	type state struct {
		done, ok bool
		err      error
	}
	vals := make([]T, n)
	states := make([]state, n)
	var next atomic.Int64
	var failed atomic.Bool
	work := func() {
		w := newWorker()
		for !failed.Load() && ctx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			// Each worker writes only the indices it claimed; no lock needed.
			var err error
			vals[i], states[i].ok, err = fn(ctx, w, i)
			states[i].done, states[i].err = true, err
			if err != nil {
				failed.Store(true)
				return
			}
		}
	}
	// The calling goroutine is one of the workers.
	var wg sync.WaitGroup
	for k := 1; k < min(workers, n); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	if n > 0 {
		work()
	}
	wg.Wait()

	// Every job below a failed one was claimed before it and completed, so
	// the scan meets the first error before any unclaimed job; only ctx's
	// cancellation leaves one otherwise. Compacting in place is safe: the
	// write index never passes the read index.
	out := vals[:0]
	for i, st := range states {
		if !st.done {
			return out, ctx.Err()
		}
		if st.err != nil {
			if err := ctx.Err(); err != nil {
				return out, err
			}
			return out, st.err
		}
		if st.ok {
			out = append(out, vals[i])
		}
	}
	return out, nil
}

// mapMutants is the one mutant loop of the experiments: it lowers the
// specification and suite once — expected observations, symptom transitions
// and conflict prefixes precomputed — and maps fn over the faults on
// mapOrdered's workers. Each worker holds a sweepWorker over the shared
// program, and every mutant is a one-cell table overlay on the worker's
// oracle runner, never a cloned system; faults OverlayFor rejects (none of
// fault.Enumerate's or fault.EnumerateAddress's) are skipped.
func mapMutants[T any](ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, faults []fault.Fault, workers int, reg *obs.Registry, fn func(ctx context.Context, w sweepWorker, f fault.Fault) (T, error)) ([]T, error) {
	prog, err := compiled.Compile(spec)
	if err != nil {
		return nil, err
	}
	csuite := compiled.NewSuite(prog, suite)
	return mapOrdered(ctx, len(faults), workers,
		func() sweepWorker { return newSweepWorker(spec, suite, prog, csuite, reg) },
		func(ctx context.Context, w sweepWorker, i int) (T, bool, error) {
			ov, ok := prog.OverlayFor(faults[i])
			if !ok {
				var skipped T
				return skipped, false, nil
			}
			w.oracle.SetOverlay(ov)
			val, err := fn(ctx, w, faults[i])
			return val, true, err
		})
}

// sweepWorker is one worker's execution state over the shared program: a
// compiled engine with the shared suite installed, and the oracle runner
// that realizes each mutant as an overlay. opts selects the engine for core
// and adds the sweep's registry. The engine and runner reuse scratch buffers
// and must not cross goroutines; spec and suite are shared read-only.
type sweepWorker struct {
	spec   *cfsm.System
	suite  []cfsm.TestCase
	eng    *compiled.Engine
	oracle *compiled.Runner
	opts   []core.Option
}

func newSweepWorker(spec *cfsm.System, suite []cfsm.TestCase, prog *compiled.Program, csuite *compiled.Suite, reg *obs.Registry) sweepWorker {
	// EngineFor fails only on a nil program, and a compiled spec never is.
	eng, _ := compiled.EngineFor(prog)
	eng.SetSuite(csuite)
	return sweepWorker{
		spec:   spec,
		suite:  suite,
		eng:    eng,
		oracle: prog.NewRunner(),
		opts:   []core.Option{core.WithRegistry(reg), core.WithEngine(eng)},
	}
}

// diagnose runs the full Steps 1–6 diagnosis of the mutant f, which
// mapMutants has installed on the worker's oracle runner. The returned
// oracle counts every test and input it ran, the suite included.
func (w sweepWorker) diagnose(ctx context.Context, f fault.Fault) (*core.Localization, *compiled.Oracle, error) {
	oracle := &compiled.Oracle{R: w.oracle}
	loc, err := core.DiagnoseContext(ctx, w.spec, w.suite, oracle, w.opts...)
	if err != nil {
		return nil, nil, fmt.Errorf("diagnose %s: %w", f.Describe(w.spec), err)
	}
	return loc, oracle, nil
}

// report diagnoses the mutant f and classifies the outcome into its sweep
// record.
func (w sweepWorker) report(ctx context.Context, f fault.Fault, opts SweepOptions, traceBudget *int64) (MutantReport, error) {
	report := MutantReport{Fault: f}
	loc, oracle, err := w.diagnose(ctx, f)
	if err != nil {
		return report, err
	}
	report.AdditionalTests = oracle.Tests - len(w.suite)
	report.AdditionalIn = oracle.Inputs
	var equiv func(*fault.Fault) bool
	if opts.CheckEquivalence {
		equiv = func(diagnosed *fault.Fault) bool { return w.eng.Equivalent(diagnosed, &f) }
	}
	classifyOutcome(loc, f, &report, equiv)
	if opts.Trace != nil && report.Outcome != OutcomeUndetected && atomic.AddInt64(traceBudget, -1) >= 0 {
		w.traceMutant(ctx, loc, f, report.Outcome, opts.Trace)
	}
	return report, nil
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

// traceMutant re-runs one detected mutant's Analyze and Localize with
// structured tracing enabled, inside a sweep.mutant span, on the suite
// observations of the untraced diagnosis loc; the worker's oracle runner
// still carries the mutant's overlay for Step 6. The diagnosis is
// deterministic, so the re-run repeats exactly the result just classified;
// tracing the second pass keeps the tracer entirely off the untraced
// mutants' path.
func (w sweepWorker) traceMutant(ctx context.Context, loc *core.Localization, f fault.Fault, out MutantOutcome, tr *trace.Tracer) {
	base := loc.Analysis
	span := tr.Begin(trace.KindSweepMutant,
		trace.A("fault", f.Describe(base.Spec)),
		trace.A("outcome", out.String()))
	opts := []core.Option{core.WithTrace(tr), core.WithEngine(w.eng)}
	a, err := core.Analyze(base.Spec, base.Suite, base.Observed, opts...)
	if err == nil {
		_, err = core.LocalizeContext(ctx, a, &compiled.Oracle{R: w.oracle}, opts...)
	}
	if err != nil {
		span.End(trace.A("error", err.Error()))
		return
	}
	span.End()
}
