package resilient

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/trace"
)

// paperFault is the diagnosis the paper's walkthrough must converge to:
// M3's t"4 transfers to s0 instead of s1.
var paperFault = fault.Fault{Ref: paper.FaultRef, Kind: fault.KindTransfer, To: "s0"}

// figure1Analysis executes the paper's test suite cleanly against the faulty
// implementation and runs Steps 1–5. The chaos layer then perturbs only the
// adaptive Step-6 tests, which mirrors the deployment the resilient layer
// targets: the suite verdicts are recorded, the diagnostic probes are live.
func figure1Analysis(t *testing.T) (*core.Analysis, *cfsm.System) {
	t.Helper()
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	suite := paper.TestSuite()
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := iut.Run(tc)
		if err != nil {
			t.Fatalf("run %s: %v", tc.Name, err)
		}
		observed[i] = obs
	}
	a, err := core.Analyze(spec, suite, observed)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a, iut
}

// chaosChain builds system → injector → retry, the deployment stack.
func chaosChain(iut *cfsm.System, inject InjectConfig, retry RetryConfig) (*FaultInjector, *RetryOracle) {
	injector := NewFaultInjector(&core.SystemOracle{Sys: iut}, inject)
	if retry.Sleep == nil {
		retry.Sleep = noSleep
	}
	return injector, NewRetryOracle(injector, retry)
}

// TestChaosFigure1Localization is the E7 acceptance check: with seeded drop
// and garble probability 0.2, the Figure 1 localization still converges to
// the paper's diagnosis through retries and majority voting.
func TestChaosFigure1Localization(t *testing.T) {
	a, iut := figure1Analysis(t)
	injector, oracle := chaosChain(iut,
		InjectConfig{Drop: 0.2, Garble: 0.2, Transient: 0.1, Seed: 1},
		RetryConfig{Votes: 3, Retries: 12, Seed: 1})
	loc, err := core.Localize(a, oracle)
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if loc.Verdict != core.VerdictLocalized {
		t.Fatalf("verdict = %v, want localized despite injection", loc.Verdict)
	}
	if loc.Fault == nil || *loc.Fault != paperFault {
		t.Fatalf("fault = %+v, want %+v", loc.Fault, paperFault)
	}
	if injector.InjectedTotal() == 0 {
		t.Error("no faults injected — the chaos layer did not engage")
	}
	st := oracle.Stats()
	if st.Retries == 0 && st.Disagreements == 0 {
		t.Errorf("stats = %+v: injection left no retry/vote footprint", st)
	}
}

// TestChaosNeverConvictsWrongTransition sweeps seeds at an aggressive fault
// rate and checks the safety property the resilient layer exists for: a run
// may come back inconclusive, but a trusted (voted) conviction is never the
// wrong transition.
func TestChaosNeverConvictsWrongTransition(t *testing.T) {
	localized, inconclusive := 0, 0
	for seed := int64(1); seed <= 20; seed++ {
		a, iut := figure1Analysis(t)
		_, oracle := chaosChain(iut,
			InjectConfig{Drop: 0.3, Garble: 0.3, Transient: 0.2, Seed: seed},
			RetryConfig{Votes: 3, Retries: 8, Seed: seed})
		loc, err := core.Localize(a, oracle)
		if err != nil {
			t.Fatalf("seed %d: Localize: %v", seed, err)
		}
		switch loc.Verdict {
		case core.VerdictLocalized:
			localized++
			if loc.Fault == nil || *loc.Fault != paperFault {
				t.Fatalf("seed %d: WRONG CONVICTION %+v, want %+v", seed, loc.Fault, paperFault)
			}
		case core.VerdictInconclusive:
			inconclusive++
			if len(loc.Inconclusive) == 0 {
				t.Errorf("seed %d: inconclusive verdict without inconclusive candidates", seed)
			}
		default:
			t.Errorf("seed %d: unexpected verdict %v", seed, loc.Verdict)
		}
	}
	t.Logf("20 seeds at 30%%/30%%/20%% injection: %d localized, %d inconclusive", localized, inconclusive)
	if localized == 0 {
		t.Error("no seed converged — the retry layer is not absorbing injected faults")
	}
}

// TestChaosInconclusiveVerdict drives the oracle into the ground (retry
// budget far below the fault rate) and checks the degraded path end to end:
// inconclusive verdict, unreliable counter, report line.
func TestChaosInconclusiveVerdict(t *testing.T) {
	a, iut := figure1Analysis(t)
	reg := obs.New()
	_, oracle := chaosChain(iut,
		InjectConfig{Garble: 0.95, Seed: 3, Registry: reg},
		RetryConfig{Votes: 3, Retries: 0, Seed: 3, Registry: reg})
	loc, err := core.Localize(a, oracle, core.WithRegistry(reg))
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if loc.Verdict != core.VerdictInconclusive {
		t.Fatalf("verdict = %v, want inconclusive at 95%% garble with no retries", loc.Verdict)
	}
	if loc.Fault != nil {
		t.Errorf("inconclusive run must not name a fault, got %+v", loc.Fault)
	}
	if len(loc.Remaining) == 0 {
		t.Errorf("inconclusive run should keep its unresolved hypotheses")
	}
	report := loc.Report()
	if !strings.Contains(report, "inconclusive") {
		t.Errorf("report does not surface the inconclusive candidates:\n%s", report)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, want := range []string{
		"cfsmdiag_resilient_unreliable_total",
		"cfsmdiag_chaos_injections_total",
		"cfsmdiag_localize_unreliable_observations_total",
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %s:\n%s", want, b.String())
		}
	}
}

// TestChaosTraceValidatesAndRecordsOracleEvents checks that a localization
// run through the full chaos stack exports a schema-valid JSONL trace that
// contains the new oracle.* and chaos.inject kinds.
func TestChaosTraceValidatesAndRecordsOracleEvents(t *testing.T) {
	a, iut := figure1Analysis(t)
	tr := trace.New()
	injector, oracle := chaosChain(iut,
		InjectConfig{Drop: 0.3, Transient: 0.3, Seed: 2, Tracer: tr},
		RetryConfig{Votes: 2, Retries: 10, Seed: 2, Tracer: tr})
	if _, err := core.Localize(a, oracle, core.WithTrace(tr)); err != nil {
		t.Fatalf("Localize: %v", err)
	}
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if events, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("exported chaos trace does not read: %v", err)
	} else if err := trace.Validate(events); err != nil {
		t.Fatalf("trace with oracle/chaos events fails validation: %v", err)
	}
	if injector.InjectedTotal() > 0 {
		if n := trace.CountKind(tr.Events(), trace.KindChaosInject, ""); n == 0 {
			t.Error("faults injected but no chaos.inject events recorded")
		}
	}
	if oracle.Stats().Retries > 0 {
		if n := trace.CountKind(tr.Events(), trace.KindOracleRetry, ""); n == 0 {
			t.Error("retries happened but no oracle.retry events recorded")
		}
	}
}

// TestChaosLocalizeContextCancellationRace cancels a LocalizeContext while
// the resilient oracle is mid-retry, repeatedly, so the race detector gets a
// chance to see retry bookkeeping and cancellation collide.
func TestChaosLocalizeContextCancellationRace(t *testing.T) {
	for i := 0; i < 8; i++ {
		a, iut := figure1Analysis(t)
		injector := NewFaultInjector(&core.SystemOracle{Sys: iut}, InjectConfig{Transient: 0.6, Seed: int64(i)})
		// Real context-aware backoff sleeps: cancellation must interrupt them.
		oracle := NewRetryOracle(injector, RetryConfig{
			Votes: 2, Retries: 50, Seed: int64(i),
			Backoff: 200 * time.Microsecond, MaxBackoff: time.Millisecond,
		})
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan struct{})
		var loc *core.Localization
		var err error
		go func() {
			defer close(done)
			loc, err = core.LocalizeContext(ctx, a, oracle)
		}()
		time.Sleep(time.Duration(i) * 300 * time.Microsecond)
		cancel()
		<-done
		if err != nil {
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("iteration %d: err = %v, want context.Canceled", i, err)
			}
			continue
		}
		// The run finished before the cancel landed; the verdict must still
		// be a sound one.
		if loc.Verdict == core.VerdictLocalized && (loc.Fault == nil || *loc.Fault != paperFault) {
			t.Fatalf("iteration %d: wrong conviction %+v", i, loc.Fault)
		}
	}
}
