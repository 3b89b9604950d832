package core

import (
	"os"
	"strings"
	"testing"

	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/trace"
)

// narrate renders the narration of a traced localization.
func narrate(t *testing.T, tr *trace.Tracer) string {
	t.Helper()
	var buf strings.Builder
	if err := trace.WriteNarration(&buf, tr.Events()); err != nil {
		t.Fatalf("WriteNarration: %v", err)
	}
	return buf.String()
}

// paperNarration is the Section 4 walkthrough's Step-6 narration, as printed
// in docs/WALKTHROUGH.md ("Watching it live"). The search stops at the
// conviction of t"4: Diag3 (t"5) is never tested.
const paperNarration = `testing candidate M1.t7 (1 hypotheses)
  diag-t7-1: "R, c^1, b^1" -> "-, a^2, d'^1" (eliminated 1)
candidate M1.t7: cleared
testing candidate M3.t"4 (1 hypotheses)
  diag-t"4-2: "R, c'^3, v^3, c'^3" -> "-, a^3, b^3, a^3" (eliminated 1)
candidate M3.t"4: convicted
`

func TestNarrationPaperSession(t *testing.T) {
	a := paperAnalysis(t)
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	tr := trace.New()
	loc, err := Localize(a, &SystemOracle{Sys: iut}, WithTrace(tr))
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if loc.Verdict != VerdictLocalized {
		t.Fatalf("verdict = %v", loc.Verdict)
	}
	if got := narrate(t, tr); got != paperNarration {
		t.Errorf("narration:\n%s\nwant:\n%s", got, paperNarration)
	}
	doc, err := os.ReadFile("../../docs/WALKTHROUGH.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(doc), "```\n"+paperNarration+"```\n") {
		t.Errorf("docs/WALKTHROUGH.md no longer shows the narration:\n%s", paperNarration)
	}
}

// escalatedMutant is a combined fault whose symptom the paper's flag
// heuristic misreads: the first localization pass clears every candidate and
// the combined-fault escalation convicts it on the retry.
func escalatedMutant(t *testing.T) (*Analysis, *SystemOracle) {
	t.Helper()
	spec := paper.MustFigure1()
	f := fault.Fault{Ref: paper.Ref("M2", "t'6"), Kind: fault.KindBoth, Output: "u", To: "s1"}
	iut, err := f.Apply(spec)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	suite := paper.TestSuite()
	observed, err := iut.RunSuite(suite)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	a, err := Analyze(spec, suite, observed)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a, &SystemOracle{Sys: iut}
}

func TestNarrationEscalation(t *testing.T) {
	a, oracle := escalatedMutant(t)
	tr := trace.New()
	loc, err := Localize(a, oracle, WithTrace(tr))
	if err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if loc.Verdict != VerdictLocalized {
		t.Fatalf("verdict = %v", loc.Verdict)
	}
	const want = `testing candidate M3.t"4 (1 hypotheses)
  diag-t"4-1: "R, c'^3, v^3" -> "-, a^3, b^3" (eliminated 1)
candidate M3.t"4: cleared
testing candidate M2.t'6 (1 hypotheses)
  diag-t'6-2: "R, c^1, t^2, c'^2, c'^3, t^2" -> "-, a^2, ε^3, a^2, a^3, ε^2" (eliminated 2)
candidate M2.t'6: cleared
escalated hypothesis space (combined): 4 diagnoses
testing candidate M3.t"4 (1 hypotheses)
  diag-t"4-1: "R, c'^3, v^3" -> "-, a^3, b^3" (eliminated 1)
candidate M3.t"4: cleared
testing candidate M2.t'6 (3 hypotheses)
  diag-t'6-2: "R, c^1, t^2, c'^2, c'^3, t^2" -> "-, a^2, ε^3, a^2, a^3, ε^2" (eliminated 3)
candidate M2.t'6: convicted
`
	if got := narrate(t, tr); got != want {
		t.Errorf("narration:\n%s\nwant:\n%s", got, want)
	}
}

// TestRoundsObservedOncePerLocalization pins cfsmdiag_localize_rounds to one
// observation per verdict: the escalated mutant runs two localization passes
// of one round each, which is one localization of two rounds.
func TestRoundsObservedOncePerLocalization(t *testing.T) {
	a, oracle := escalatedMutant(t)
	reg := obs.New()
	tr := trace.New()
	if _, err := Localize(a, oracle, WithRegistry(reg), WithTrace(tr)); err != nil {
		t.Fatalf("Localize: %v", err)
	}
	rounds := reg.Histogram(metricRounds, "", obs.DefaultSizeBuckets)
	if got := rounds.Count(); got != 1 {
		t.Errorf("rounds histogram count = %d, want 1 (one verdict)", got)
	}
	spans := trace.CountKind(tr.Events(), trace.KindRound, trace.PhaseBegin)
	if spans != 2 || rounds.Sum() != float64(spans) {
		t.Errorf("rounds histogram sum = %v, localize.round spans = %d, want both 2", rounds.Sum(), spans)
	}

	// A no-fault run is a localization too: it observes zero rounds.
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	observed, err := spec.RunSuite(suite)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	clean, err := Analyze(spec, suite, observed)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	if _, err := Localize(clean, &SystemOracle{Sys: spec}, WithRegistry(reg)); err != nil {
		t.Fatalf("Localize: %v", err)
	}
	if got := rounds.Count(); got != 2 {
		t.Errorf("rounds histogram count after a no-fault run = %d, want 2", got)
	}
}
