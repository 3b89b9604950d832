package testgen

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/refsearch"
)

func TestVerificationSuiteShape(t *testing.T) {
	sys := paper.MustFigure1()
	suite, undetectable := VerificationSuite(sys)
	if len(undetectable) != 0 {
		t.Fatalf("undetectable = %v", undetectable)
	}
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	// The suite should be much smaller than one test per mutant thanks to
	// test reuse.
	if len(suite) >= len(fault.Enumerate(sys)) {
		t.Errorf("no test reuse: %d cases for %d mutants", len(suite), len(fault.Enumerate(sys)))
	}
	for _, tc := range suite {
		if len(tc.Inputs) == 0 || !tc.Inputs[0].IsReset() {
			t.Fatalf("case %s does not start with reset", tc.Name)
		}
	}
	if SuiteInputs(suite) <= len(suite) {
		t.Fatal("SuiteInputs must count more than one input per case")
	}
}

// TestVerificationSuiteDetectsEverything: every single-transition mutant of
// the Figure 1 system that is distinguishable from the specification must
// produce a symptom under the verification suite — the property the
// transition tour lacks (the tour misses 9 pure transfer faults).
func TestVerificationSuiteDetectsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full mutant detection check is slow")
	}
	sys := paper.MustFigure1()
	suite, undetectable := VerificationSuite(sys)
	skip := make(map[string]bool, len(undetectable))
	for _, f := range undetectable {
		if !refsearch.SystemsEquivalent(sys, mustApply(t, sys, f)) {
			t.Errorf("mutant %s declared undetectable but is distinguishable", f.Describe(sys))
		}
		skip[f.Describe(sys)] = true
	}
	expected := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := sys.Run(tc)
		if err != nil {
			t.Fatalf("run %s: %v", tc.Name, err)
		}
		expected[i] = obs
	}
	for _, f := range fault.Enumerate(sys) {
		if skip[f.Describe(sys)] {
			continue
		}
		mutant := mustApply(t, sys, f)
		detected := false
		for i, tc := range suite {
			obs, err := mutant.Run(tc)
			if err != nil {
				t.Fatalf("run %s on mutant: %v", tc.Name, err)
			}
			if !cfsm.ObsEqual(obs, expected[i]) {
				detected = true
				break
			}
		}
		if !detected {
			t.Errorf("verification suite missed mutant %s", f.Describe(sys))
		}
	}
}

func mustApply(t *testing.T, sys *cfsm.System, f fault.Fault) *cfsm.System {
	t.Helper()
	m, err := f.Apply(sys)
	if err != nil {
		t.Fatalf("apply %v: %v", f, err)
	}
	return m
}

func TestVerificationSuiteUndetectable(t *testing.T) {
	// A machine with two equivalent sink states: the transfer fault of t1
	// between them is undetectable.
	a, err := cfsm.NewMachine("A", "s0", []cfsm.State{"s0", "s1", "s2"}, []cfsm.Transition{
		{Name: "t1", From: "s0", Input: "x", Output: "go", To: "s1", Dest: cfsm.DestEnv},
		{Name: "t2", From: "s1", Input: "x", Output: "halt", To: "s1", Dest: cfsm.DestEnv},
		{Name: "t3", From: "s2", Input: "x", Output: "halt", To: "s2", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(a)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	_, undetectable := VerificationSuite(sys)
	found := false
	for _, f := range undetectable {
		if f.Ref.Name == "t1" && f.Kind == fault.KindTransfer && f.To == "s2" {
			found = true
		}
	}
	if !found {
		t.Errorf("expected t1→s2 to be undetectable, got %v", undetectable)
	}
}
