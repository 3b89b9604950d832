package core_test

import (
	"fmt"
	"slices"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/ports"
)

// TestEscalateCombinedRedundantAfterCombinedStep5B: when Step 5B already
// verified the combined (state, output) space — the flag is set, or an
// observation matcher is installed — the combined-fault escalation verifies
// no couple that 5B did not keep, over every E18 single-transition and
// addressing mutant under per-machine observers and under the classical
// global observer. EscalateCombined relies on it to skip re-verification
// there.
func TestEscalateCombinedRedundantAfterCombinedStep5B(t *testing.T) {
	matched, flagged := 0, 0
	for _, sys := range conformanceSystems(t, 1, 42) {
		portOf := make([]string, sys.spec.N())
		for i := range portOf {
			portOf[i] = fmt.Sprintf("site-%02d", i)
		}
		pm, err := ports.New(sys.spec, portOf)
		if err != nil {
			t.Fatal(err)
		}
		check := func(f fault.Fault, a *core.Analysis) {
			t.Helper()
			verify := func(r cfsm.Ref, candidates []cfsm.Symbol) {
				tr, _ := sys.spec.Transition(r)
				for _, so := range a.VerifiedStatOut(r, candidates) {
					if so.State != tr.To && !slices.Contains(a.StatOut[r], so) {
						t.Errorf("%s/%s: escalation verifies %v for %s, which Step 5B lacks",
							sys.name, f.Describe(sys.spec), so, sys.spec.RefString(r))
					}
				}
			}
			for _, r := range a.UstSet {
				verify(r, []cfsm.Symbol{a.USO})
			}
			for _, rs := range a.FTCco {
				for _, r := range rs {
					verify(r, sys.spec.AlternativeOutputs(r))
				}
			}
		}
		for _, f := range append(fault.Enumerate(sys.spec), fault.EnumerateAddress(sys.spec)...) {
			iut, err := f.Apply(sys.spec)
			if err != nil {
				t.Fatal(err)
			}
			observed, err := iut.RunSuite(sys.suite)
			if err != nil {
				t.Fatal(err)
			}
			if a, _, err := ports.AnalyzeObserved(sys.spec, sys.suite, observed, pm); err == nil && len(a.Symptoms) > 0 {
				matched++
				check(f, a)
			}
			if a, err := core.Analyze(sys.spec, sys.suite, observed); err == nil && a.Flag {
				flagged++
				check(f, a)
			}
		}
	}
	if matched == 0 || flagged == 0 {
		t.Fatalf("checked %d analyses under a matcher and %d flagged ones; want both", matched, flagged)
	}
	t.Logf("checked %d analyses under a matcher and %d flagged ones", matched, flagged)
}
