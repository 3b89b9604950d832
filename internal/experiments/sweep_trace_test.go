package experiments

import (
	"bytes"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// assertTraceValidates round-trips events through the JSONL exporter and its
// schema validator.
func assertTraceValidates(t *testing.T, events []trace.Event) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, events); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	back, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if err := trace.Validate(back); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(back) != len(events) {
		t.Fatalf("ReadJSONL read %d events, wrote %d", len(back), len(events))
	}
}

// TestRunSweepTracesFirstFailures checks the opt-in per-mutant tracing: a
// serial sweep with TraceFailures: 2 records exactly two sweep.mutant spans,
// each wrapping a full diagnosis of a detected mutant, and the trace passes
// the exporter's schema validation.
func TestRunSweepTracesFirstFailures(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	tr := trace.New()
	res, err := RunSweepOpts(spec, suite, SweepOptions{
		Workers:       1,
		Trace:         tr,
		TraceFailures: 2,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Detected < 2 {
		t.Fatalf("sweep detected %d mutants, need at least 2 for this test", res.Detected)
	}
	events := tr.Events()
	if got := trace.CountKind(events, trace.KindSweepMutant, trace.PhaseBegin); got != 2 {
		t.Fatalf("sweep.mutant begin spans = %d, want 2", got)
	}
	if got := trace.CountKind(events, trace.KindSweepMutant, trace.PhaseEnd); got != 2 {
		t.Fatalf("sweep.mutant end spans = %d, want 2", got)
	}
	// Every traced mutant's diagnosis recorded its analysis and verdict.
	if got := trace.CountKind(events, trace.KindAnalyze, trace.PhaseBegin); got != 2 {
		t.Fatalf("analyze spans = %d, want 2", got)
	}
	if got := trace.CountKind(events, trace.KindVerdict, ""); got != 2 {
		t.Fatalf("localize.verdict events = %d, want 2", got)
	}
	for _, e := range events {
		if e.Kind == trace.KindSweepMutant && e.Phase == trace.PhaseBegin {
			if e.Attrs["fault"] == "" || e.Attrs["outcome"] == "" {
				t.Fatalf("sweep.mutant span lacks fault/outcome attrs: %+v", e)
			}
		}
	}
	assertTraceValidates(t, events)
}

// TestRunSweepSharedTracerParallel drives a parallel sweep with a shared
// tracer and a budget larger than the worker count, so several workers trace
// concurrently into the same ring. Run under -race this is the data-race
// check for the tracer in its noisiest real consumer; functionally it checks
// the budget is honored exactly despite concurrent decrements.
func TestRunSweepSharedTracerParallel(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	const budget = 4
	tr := trace.New()
	res, err := RunSweepOpts(spec, suite, SweepOptions{
		Workers:       8,
		Trace:         tr,
		TraceFailures: budget,
	})
	if err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if res.Detected < budget {
		t.Fatalf("sweep detected %d mutants, need at least %d", res.Detected, budget)
	}
	events := tr.Events()
	if got := trace.CountKind(events, trace.KindSweepMutant, trace.PhaseBegin); got != budget {
		t.Fatalf("sweep.mutant begin spans = %d, want %d", got, budget)
	}
	if got := trace.CountKind(events, trace.KindSweepMutant, trace.PhaseEnd); got != budget {
		t.Fatalf("sweep.mutant end spans = %d, want %d", got, budget)
	}
	// Sequence numbers must be unique and strictly increasing even though
	// eight workers emitted concurrently.
	for i := 1; i < len(events); i++ {
		if events[i].Seq <= events[i-1].Seq {
			t.Fatalf("event %d: seq %d not after %d", i, events[i].Seq, events[i-1].Seq)
		}
	}
}

// TestRunSweepTraceDefaultsToOne: a non-nil tracer with TraceFailures left
// zero traces exactly one failing mutant.
func TestRunSweepTraceDefaultsToOne(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	tr := trace.New()
	if _, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1, Trace: tr}); err != nil {
		t.Fatalf("sweep: %v", err)
	}
	if got := trace.CountKind(tr.Events(), trace.KindSweepMutant, trace.PhaseBegin); got != 1 {
		t.Fatalf("sweep.mutant begin spans = %d, want 1", got)
	}
}

// TestSweepMetricsMatchTrace checks that core's metrics and trace events
// count the same pipeline moments: a sweep records metrics for every mutant
// and, with TraceFailures covering every detected mutant, traces each
// detected mutant's diagnosis once, so every per-localization total must
// equal the matching event count (undetected mutants contribute a no_fault
// verdict and nothing else).
func TestSweepMetricsMatchTrace(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Seed = 1
	rand1 := randgen.MustGenerate(cfg)
	tour, _ := testgen.Tour(rand1, 0)
	for _, fx := range []struct {
		name  string
		spec  *cfsm.System
		suite []cfsm.TestCase
	}{
		{"figure1", paper.MustFigure1(), paper.TestSuite()},
		{"rand-1", rand1, tour},
	} {
		t.Run(fx.name, func(t *testing.T) {
			reg := obs.New()
			tr := trace.New()
			res, err := RunSweepOpts(fx.spec, fx.suite, SweepOptions{
				Workers:       2,
				Registry:      reg,
				Trace:         tr,
				TraceFailures: len(fault.Enumerate(fx.spec)),
			})
			if err != nil {
				t.Fatalf("sweep: %v", err)
			}
			events := tr.Events()
			if got := trace.CountKind(events, trace.KindSweepMutant, trace.PhaseBegin); got != res.Detected {
				t.Fatalf("traced %d mutants, sweep detected %d", got, res.Detected)
			}
			count := func(kind trace.Kind, phase, key, value string) int64 {
				n := int64(0)
				for _, e := range events {
					if e.Kind == kind && e.Phase == phase && (key == "" || e.Attrs[key] == value) {
						n++
					}
				}
				return n
			}
			check := func(what string, metric, events int64) {
				t.Helper()
				if metric != events {
					t.Errorf("%s: metric %d, trace events %d", what, metric, events)
				}
			}
			for _, v := range []struct {
				verdict core.Verdict
				label   string
			}{
				{core.VerdictLocalized, "localized"},
				{core.VerdictAmbiguous, "ambiguous"},
				{core.VerdictInconsistent, "inconsistent"},
				{core.VerdictInconclusive, "inconclusive_observation"},
			} {
				check("verdict "+v.label,
					reg.Counter("cfsmdiag_localize_verdicts_total", "", obs.L("verdict", v.label)).Value(),
					count(trace.KindVerdict, "", "verdict", v.verdict.String()))
			}
			for _, kind := range []string{"combined", "address"} {
				check("escalations "+kind,
					reg.Counter("cfsmdiag_localize_escalations_total", "", obs.L("kind", kind)).Value(),
					count(trace.KindEscalation, "", "tier", kind))
			}
			check("symptoms",
				reg.Counter("cfsmdiag_symptoms_total", "").Value(),
				count(trace.KindSymptom, "", "", ""))
			check("rounds",
				int64(reg.Histogram("cfsmdiag_localize_rounds", "", obs.DefaultSizeBuckets).Sum()),
				count(trace.KindRound, trace.PhaseBegin, "", ""))
			check("additional tests",
				int64(reg.Histogram("cfsmdiag_localize_additional_tests", "", obs.DefaultSizeBuckets).Sum()),
				count(trace.KindTest, "", "unreliable", ""))
			check("unreliable",
				reg.Counter("cfsmdiag_localize_unreliable_observations_total", "").Value(),
				count(trace.KindInconclusive, "", "", ""))
			if got, want := reg.Histogram("cfsmdiag_localize_rounds", "", obs.DefaultSizeBuckets).Count(), uint64(len(res.Reports)); got != want {
				t.Errorf("rounds observed %d times for %d localizations", got, want)
			}
		})
	}
}
