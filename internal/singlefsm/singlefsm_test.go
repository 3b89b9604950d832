package singlefsm

import (
	"slices"
	"testing"

	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/fsm"
)

// counter is a 3-state counter machine with distinct outputs per state:
//
//	c1: s0 -i/o0-> s1   c2: s1 -i/o1-> s2   c3: s2 -i/o2-> s0
//	c4: s0 -j/p0-> s0   c5: s1 -j/p1-> s1   c6: s2 -j/p2-> s2
func counter(t *testing.T) *fsm.FSM {
	t.Helper()
	m, err := fsm.New("C", "s0", []fsm.State{"s0", "s1", "s2"}, []fsm.Transition{
		{Name: "c1", From: "s0", Input: "i", Output: "o0", To: "s1"},
		{Name: "c2", From: "s1", Input: "i", Output: "o1", To: "s2"},
		{Name: "c3", From: "s2", Input: "i", Output: "o2", To: "s0"},
		{Name: "c4", From: "s0", Input: "j", Output: "p0", To: "s0"},
		{Name: "c5", From: "s1", Input: "j", Output: "p1", To: "s1"},
		{Name: "c6", From: "s2", Input: "j", Output: "p2", To: "s2"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func analyzeWith(t *testing.T, spec, iut *fsm.FSM, suite [][]fsm.Symbol) *Analysis {
	t.Helper()
	observed := make([][]fsm.Symbol, len(suite))
	for i, tc := range suite {
		observed[i], _ = iut.Run(iut.Initial(), tc)
	}
	a, err := Analyze(spec, suite, observed)
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	return a
}

func TestNoSymptoms(t *testing.T) {
	spec := counter(t)
	a := analyzeWith(t, spec, spec, [][]fsm.Symbol{{"i", "i", "i"}})
	if a.HasSymptoms() || len(a.Diagnoses) != 0 {
		t.Fatalf("unexpected symptoms: %+v", a)
	}
}

// outputsOf returns the output symbols m's transitions produce, in
// transition order without repeats.
func outputsOf(m *fsm.FSM) []fsm.Symbol {
	var outputs []fsm.Symbol
	for _, tr := range m.Transitions() {
		if !slices.Contains(outputs, tr.Output) {
			outputs = append(outputs, tr.Output)
		}
	}
	return outputs
}

// hasDiagnosis reports whether the analysis kept the given diagnosis.
func hasDiagnosis(a *Analysis, want Diagnosis) bool {
	return slices.Contains(a.Diagnoses, want)
}

func TestOutputFaultDiagnosis(t *testing.T) {
	spec := counter(t)
	iut, err := spec.Rewire("c2", "o2", "")
	if err != nil {
		t.Fatalf("Rewire: %v", err)
	}
	a := analyzeWith(t, spec, iut, [][]fsm.Symbol{{"i", "i", "i"}})
	if a.UST != "c2" || a.USO != "o2" {
		t.Fatalf("ust = %q uso = %q", a.UST, a.USO)
	}
	want := Diagnosis{Transition: "c2", Kind: fault.KindOutput, Output: "o2"}
	if !hasDiagnosis(a, want) {
		t.Fatalf("diagnoses = %+v, want them to include %+v", a.Diagnoses, want)
	}
}

func TestTransferFaultDiagnosis(t *testing.T) {
	spec := counter(t)
	iut, err := spec.Rewire("c1", "", "s2")
	if err != nil {
		t.Fatalf("Rewire: %v", err)
	}
	suite := [][]fsm.Symbol{{"i", "j"}}
	a := analyzeWith(t, spec, iut, suite)
	if !a.HasSymptoms() {
		t.Fatal("transfer fault must be detected by the probe suite")
	}
	want := Diagnosis{Transition: "c1", Kind: fault.KindTransfer, To: "s2"}
	if !hasDiagnosis(a, want) {
		t.Fatalf("diagnoses = %+v, want them to include %+v", a.Diagnoses, want)
	}
}

func TestAnalyzeValidation(t *testing.T) {
	spec := counter(t)
	if _, err := Analyze(spec, [][]fsm.Symbol{{"i"}}, nil); err == nil {
		t.Error("want error for missing observations")
	}
	if _, err := Analyze(spec, [][]fsm.Symbol{{"i"}}, [][]fsm.Symbol{{}}); err == nil {
		t.Error("want error for length mismatch")
	}
}

// TestCandidatesOrder pins the order of the conflict-set intersection: it
// follows the first symptomatic test case, on every run. Case 0 conflicts
// with [c1 c2 c3 c4 c5] and case 1 with [c4 c1 c5]; the intersection keeps
// case 0's order.
func TestCandidatesOrder(t *testing.T) {
	spec := counter(t)
	iut, err := spec.Rewire("c5", "p9", "")
	if err != nil {
		t.Fatalf("Rewire: %v", err)
	}
	suite := [][]fsm.Symbol{{"i", "i", "i", "j", "i", "j"}, {"j", "i", "j"}}
	want := []string{"c1", "c4", "c5"}
	for run := 0; run < 100; run++ {
		a := analyzeWith(t, spec, iut, suite)
		if !slices.Equal(a.Candidates, want) {
			t.Fatalf("run %d: candidates = %v, want %v", run, a.Candidates, want)
		}
	}
}

func TestExhaustiveCost(t *testing.T) {
	m := counter(t)
	tests, inputs := ExhaustiveCost(m)
	if tests == 0 || inputs == 0 {
		t.Fatal("zero cost for a nonempty machine")
	}
	// 6 transitions, each verified against every characterization sequence:
	// at least one test per transition.
	if tests < m.NumTransitions() {
		t.Errorf("tests = %d, want >= %d", tests, m.NumTransitions())
	}
	if inputs <= tests {
		t.Errorf("inputs = %d should exceed tests = %d", inputs, tests)
	}
}

func TestExhaustiveCostUnreachable(t *testing.T) {
	m, err := fsm.New("U", "s0", []fsm.State{"s0", "s1"}, []fsm.Transition{
		{Name: "t1", From: "s0", Input: "i", Output: "o", To: "s0"},
		{Name: "t2", From: "s1", Input: "i", Output: "q", To: "s1"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	// W = {i} separates s0 (o) from s1 (q). Only t1 is verified: reset,
	// an empty transfer, its input and W's one sequence. t2's source is
	// unreachable, so it adds nothing.
	tests, inputs := ExhaustiveCost(m)
	if tests != 1 || inputs != 3 {
		t.Fatalf("ExhaustiveCost = %d tests, %d inputs, want 1 and 3", tests, inputs)
	}
}

// TestSweepAllSingleFaults exhaustively injects every output and transfer
// fault into the counter machine and checks that whenever the probing suite
// detects the fault, the injected fault is among the analysis' diagnoses.
func TestSweepAllSingleFaults(t *testing.T) {
	spec := counter(t)
	suite := [][]fsm.Symbol{{"i", "i", "i", "j"}, {"j", "i", "j", "i", "j"}}
	outputs := outputsOf(spec)
	detected := 0
	for _, tr := range spec.Transitions() {
		var muts []*fsm.FSM
		var faults []Diagnosis
		for _, o := range outputs {
			if o == tr.Output {
				continue
			}
			m, err := spec.Rewire(tr.Name, o, "")
			if err != nil {
				t.Fatalf("Rewire: %v", err)
			}
			muts = append(muts, m)
			faults = append(faults, Diagnosis{Transition: tr.Name, Kind: fault.KindOutput, Output: o})
		}
		for _, s := range spec.States() {
			if s == tr.To {
				continue
			}
			m, err := spec.Rewire(tr.Name, "", s)
			if err != nil {
				t.Fatalf("Rewire: %v", err)
			}
			muts = append(muts, m)
			faults = append(faults, Diagnosis{Transition: tr.Name, Kind: fault.KindTransfer, To: s})
		}
		for k, iut := range muts {
			a := analyzeWith(t, spec, iut, suite)
			if !a.HasSymptoms() {
				continue // this suite does not detect the mutant
			}
			detected++
			if !hasDiagnosis(a, faults[k]) {
				t.Errorf("%+v: not among the diagnoses %+v", faults[k], a.Diagnoses)
			}
		}
	}
	if detected == 0 {
		t.Fatal("the probing suite detected no mutant at all")
	}
}
