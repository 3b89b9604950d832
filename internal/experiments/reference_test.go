package experiments

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// referenceSweep diagnoses every mutant serially through the library entry
// point core.Diagnose with a cloned-system oracle, and classifies each
// outcome with the interpreted equivalence search — the sweep without its
// worker pool, shared program and suite, or overlay oracle. core's
// TestLibraryMatchesReference pins core.Diagnose to the interpreted
// reference engine on the same fixtures.
func referenceSweep(t *testing.T, spec *cfsm.System, suite []cfsm.TestCase) []MutantReport {
	t.Helper()
	var out []MutantReport
	for _, f := range fault.Enumerate(spec) {
		mut, err := f.Apply(spec)
		if err != nil {
			t.Fatalf("apply %s: %v", f.Describe(spec), err)
		}
		oracle := &core.SystemOracle{Sys: mut}
		loc, err := core.Diagnose(spec, suite, oracle)
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
		}
		report := MutantReport{
			Fault:           f,
			AdditionalTests: oracle.Tests - len(suite),
			AdditionalIn:    oracle.Inputs,
		}
		classifyOutcome(loc, f, &report, func(diagnosed *fault.Fault) bool {
			sys := spec
			if diagnosed != nil {
				if sys, err = diagnosed.Apply(spec); err != nil {
					return false
				}
			}
			return testgen.SystemsEquivalent(sys, mut)
		})
		out = append(out, report)
	}
	return out
}

// TestSweepMatchesReference compares a sweep, mutant by mutant, with the
// serial library sweep (referenceSweep): fault order, outcome,
// exact-fault and equivalence flags, and the additional tests and inputs
// Step 6 spent must all be identical.
func TestSweepMatchesReference(t *testing.T) {
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
			want := referenceSweep(t, fx.spec, fx.suite)
			got, err := RunSweepOpts(fx.spec, fx.suite, SweepOptions{Workers: 2, CheckEquivalence: true})
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Reports) != len(want) {
				t.Fatalf("%d reports, reference %d", len(got.Reports), len(want))
			}
			for i := range want {
				if got.Reports[i] != want[i] {
					t.Errorf("mutant %d (%s):\n  sweep     %+v\n  reference %+v",
						i, want[i].Fault.Describe(fx.spec), got.Reports[i], want[i])
				}
			}
		})
	}
}
