package replay_test

import (
	"bytes"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/trace"
)

// recordFigure1 performs the live Figure 1 / t″4 diagnosis with tracing on
// and returns the original localization plus the recorded trace.
func recordFigure1(t *testing.T) (*core.Localization, *trace.Tracer) {
	t.Helper()
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	tr := trace.New()
	loc, err := core.Diagnose(spec, paper.TestSuite(), &core.SystemOracle{Sys: iut}, core.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	return loc, tr
}

// TestReplayReproducesFigure1Localization is the acceptance criterion:
// replaying a trace recorded from the Figure 1 t″4 run reproduces the
// identical Localization — same convicted transition, same diagnoses, same
// round count — with zero live oracle calls.
func TestReplayReproducesFigure1Localization(t *testing.T) {
	loc, tr := recordFigure1(t)

	// Round-trip the trace through the JSONL exporter, as the CLI does.
	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("recorded trace does not validate: %v", err)
	}

	run, err := replay.Load(events)
	if err != nil {
		t.Fatal(err)
	}
	rtr := trace.New()
	rloc, oracle, err := run.Localize(core.WithTrace(rtr))
	if err != nil {
		t.Fatal(err)
	}

	// Same verdict and convicted transition.
	if rloc.Verdict != loc.Verdict {
		t.Fatalf("replayed verdict %v, original %v", rloc.Verdict, loc.Verdict)
	}
	if rloc.Fault == nil || rloc.Fault.Ref != paper.FaultRef {
		t.Fatalf("replayed fault %+v, want conviction of %v", rloc.Fault, paper.FaultRef)
	}
	if got, want := rloc.Fault.Describe(run.Spec), loc.Fault.Describe(loc.Analysis.Spec); got != want {
		t.Fatalf("replayed fault %q, original %q", got, want)
	}

	// Same diagnoses, in the same order.
	if len(rloc.Analysis.Diagnoses) != len(loc.Analysis.Diagnoses) {
		t.Fatalf("replayed %d diagnoses, original %d", len(rloc.Analysis.Diagnoses), len(loc.Analysis.Diagnoses))
	}
	for i := range loc.Analysis.Diagnoses {
		got := rloc.Analysis.Diagnoses[i].Describe(run.Spec)
		want := loc.Analysis.Diagnoses[i].Describe(loc.Analysis.Spec)
		if got != want {
			t.Fatalf("diagnosis %d: replayed %q, original %q", i+1, got, want)
		}
	}

	// Same cleared candidates and additional tests.
	if len(rloc.Cleared) != len(loc.Cleared) {
		t.Fatalf("replayed %d cleared, original %d", len(rloc.Cleared), len(loc.Cleared))
	}
	for i := range loc.Cleared {
		if rloc.Cleared[i] != loc.Cleared[i] {
			t.Fatalf("cleared %d: replayed %v, original %v", i, rloc.Cleared[i], loc.Cleared[i])
		}
	}
	if len(rloc.AdditionalTests) != len(loc.AdditionalTests) {
		t.Fatalf("replayed %d additional tests, original %d", len(rloc.AdditionalTests), len(loc.AdditionalTests))
	}
	for i := range loc.AdditionalTests {
		got := cfsm.FormatInputs(rloc.AdditionalTests[i].Test.Inputs)
		want := cfsm.FormatInputs(loc.AdditionalTests[i].Test.Inputs)
		if got != want {
			t.Fatalf("additional test %d: replayed %q, original %q", i+1, got, want)
		}
		if !cfsm.ObsEqual(rloc.AdditionalTests[i].Observed, loc.AdditionalTests[i].Observed) {
			t.Fatalf("additional test %d: observations differ", i+1)
		}
	}

	// Same round count, comparing recorded vs replayed traces.
	origRounds := trace.CountKind(tr.Events(), trace.KindRound, trace.PhaseBegin)
	replayRounds := trace.CountKind(rtr.Events(), trace.KindRound, trace.PhaseBegin)
	if origRounds == 0 || origRounds != replayRounds {
		t.Fatalf("round count: original %d, replayed %d", origRounds, replayRounds)
	}
	if run.Rounds != origRounds {
		t.Fatalf("Load counted %d rounds, trace has %d", run.Rounds, origRounds)
	}

	// Zero live oracle calls: every query was served from the recording.
	if oracle.Queries != len(loc.AdditionalTests) {
		t.Fatalf("canned oracle served %d queries, original run executed %d tests",
			oracle.Queries, len(loc.AdditionalTests))
	}

	// The recorded verdict cross-check passes.
	if err := run.Check(rloc); err != nil {
		t.Fatalf("Check: %v", err)
	}
}

func TestCannedOracleRejectsUnrecordedQuery(t *testing.T) {
	canned := &replay.CannedOracle{}
	_, err := canned.Execute(cfsm.TestCase{Inputs: []cfsm.Input{cfsm.Reset()}})
	if err == nil || !strings.Contains(err.Error(), "was not recorded") {
		t.Fatalf("unrecorded query error = %v", err)
	}
}

func TestLoadRejectsHeaderlessTrace(t *testing.T) {
	tr := trace.New()
	tr.Emit(trace.KindSymptom)
	if _, err := replay.Load(tr.Events()); err == nil || !strings.Contains(err.Error(), "no run.spec") {
		t.Fatalf("Load error = %v", err)
	}
}

// unreliableOracle fails every query with the unreliable-observation
// sentinel, the way the resilient retry layer does when retries and votes
// are exhausted.
type unreliableOracle struct{}

func (unreliableOracle) Execute(cfsm.TestCase) ([]cfsm.Observation, error) {
	return nil, core.ErrUnreliableObservation
}

// TestReplayReproducesInconclusiveRun round-trips a run in which no
// diagnostic test ever produced a trustworthy observation: the trace marks
// every test unreliable, and the replay's canned oracle re-answers them with
// the same sentinel, reproducing the inconclusive verdict instead of
// reporting a bogus divergence.
func TestReplayReproducesInconclusiveRun(t *testing.T) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	suite := paper.TestSuite()
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		if observed[i], err = iut.Run(tc); err != nil {
			t.Fatal(err)
		}
	}
	tr := trace.New()
	if err := core.RecordRun(tr, spec, suite, observed); err != nil {
		t.Fatal(err)
	}
	a, err := core.Analyze(spec, suite, observed, core.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	loc, err := core.Localize(a, unreliableOracle{}, core.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if loc.Verdict != core.VerdictInconclusive {
		t.Fatalf("verdict = %v, want inconclusive (every query unreliable)", loc.Verdict)
	}

	var buf bytes.Buffer
	if err := trace.WriteJSONL(&buf, tr.Events()); err != nil {
		t.Fatal(err)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.Validate(events); err != nil {
		t.Fatalf("inconclusive trace fails validation: %v", err)
	}
	rec, err := replay.Load(events)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Unreliable) == 0 {
		t.Fatal("recorded run has no unreliable tests")
	}
	replayed, canned, err := rec.Localize()
	if err != nil {
		t.Fatalf("replayed localization: %v", err)
	}
	if canned.Queries == 0 {
		t.Error("replay answered no queries")
	}
	if replayed.Verdict != core.VerdictInconclusive {
		t.Fatalf("replayed verdict = %v, want inconclusive", replayed.Verdict)
	}
	if err := rec.Check(replayed); err != nil {
		t.Fatalf("Check: %v", err)
	}
	if !strings.Contains(replayed.Report(), "inconclusive") {
		t.Errorf("replayed report does not mention the inconclusive candidates")
	}
}
