package singlefsm

import (
	"testing"

	"cfsmdiag/internal/fsm"
)

func TestDSMethodSuite(t *testing.T) {
	spec := counter(t)
	suite, ok := DSMethodSuite(spec)
	if !ok {
		t.Fatal("counter machine should have a preset DS")
	}
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}

	// The DS suite has the same fault-detection power as the W suite on
	// this machine: every single mutant is detected.
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
				t.Errorf("DS suite missed output mutant %s→%s", tr.Name, o)
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
				t.Errorf("DS suite missed transfer mutant %s→%s", tr.Name, s)
			}
		}
	}
}

func TestDSMethodSuiteNoDS(t *testing.T) {
	// Equivalent states: no preset DS, the method must decline.
	m, err := fsm.New("E", "s0", []fsm.State{"s0", "s1"}, []fsm.Transition{
		{Name: "t1", From: "s0", Input: "a", Output: "x", To: "s1"},
		{Name: "t2", From: "s1", Input: "a", Output: "x", To: "s0"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, ok := DSMethodSuite(m); ok {
		t.Fatal("DSMethodSuite should decline without a preset DS")
	}
}
