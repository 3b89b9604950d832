package singlefsm

import (
	"testing"

	"cfsmdiag/internal/fsm"
)

func TestWMethodSuiteShape(t *testing.T) {
	m := counter(t)
	suite := WMethodSuite(m)
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	seen := make(map[string]bool)
	for _, tc := range suite {
		if len(tc) == 0 {
			t.Fatal("empty test case")
		}
		k := symbolsKey(tc)
		if seen[k] {
			t.Fatalf("duplicate test case %v", tc)
		}
		seen[k] = true
	}
	if SuiteInputs(suite) <= len(suite) {
		t.Fatal("SuiteInputs must include the test bodies")
	}
}

// TestWMethodDetectsAllSingleFaults: the W-method suite detects every output
// and transfer mutant of the counter machine — the "strong diagnostic power"
// the paper attributes to it.
func TestWMethodDetectsAllSingleFaults(t *testing.T) {
	spec := counter(t)
	suite := WMethodSuite(spec)
	expected := make([][]fsm.Symbol, len(suite))
	for i, tc := range suite {
		expected[i], _ = spec.Run(spec.Initial(), tc)
	}
	detects := func(iut *fsm.FSM) bool {
		for i, tc := range suite {
			got, _ := iut.Run(iut.Initial(), tc)
			for j := range got {
				if got[j] != expected[i][j] {
					return true
				}
			}
		}
		return false
	}
	for _, tr := range spec.Transitions() {
		for _, o := range outputsOf(spec) {
			if o == tr.Output {
				continue
			}
			iut, err := spec.Rewire(tr.Name, o, "")
			if err != nil {
				t.Fatalf("Rewire: %v", err)
			}
			if !detects(iut) {
				t.Errorf("missed output mutant %s→%s", tr.Name, o)
			}
		}
		for _, s := range spec.States() {
			if s == tr.To {
				continue
			}
			iut, err := spec.Rewire(tr.Name, "", s)
			if err != nil {
				t.Fatalf("Rewire: %v", err)
			}
			if !detects(iut) {
				t.Errorf("missed transfer mutant %s→%s", tr.Name, s)
			}
		}
	}
}

func TestWMethodEquivalentStates(t *testing.T) {
	// A machine whose states are pairwise equivalent still yields a suite
	// with per-transition output checks.
	m, err := fsm.New("E", "s0", []fsm.State{"s0", "s1"}, []fsm.Transition{
		{Name: "t1", From: "s0", Input: "a", Output: "x", To: "s1"},
		{Name: "t2", From: "s1", Input: "a", Output: "x", To: "s0"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	suite := WMethodSuite(m)
	if len(suite) == 0 {
		t.Fatal("empty suite for equivalent-state machine")
	}
}
