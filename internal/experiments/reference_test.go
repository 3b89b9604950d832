package experiments

import (
	"context"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

// referenceSweep diagnoses every mutant of the fault list serially through
// the library entry point core.Diagnose with a cloned-system oracle, and
// classifies each outcome with the interpreted equivalence search — the
// sweep without its worker pool, shared program and suite, or overlay
// oracle. core's TestLibraryMatchesReference pins core.Diagnose to the
// interpreted reference engine on the same fixtures.
func referenceSweep(t *testing.T, spec *cfsm.System, suite []cfsm.TestCase, faults []fault.Fault) []MutantReport {
	t.Helper()
	var out []MutantReport
	for _, f := range faults {
		mut, oracle, loc := referenceDiagnose(t, spec, suite, f)
		report := MutantReport{
			Fault:           f,
			AdditionalTests: oracle.Tests - len(suite),
			AdditionalIn:    oracle.Inputs,
		}
		classifyOutcome(loc, f, &report, func(diagnosed *fault.Fault) bool {
			sys := spec
			if diagnosed != nil {
				var err error
				if sys, err = diagnosed.Apply(spec); err != nil {
					return false
				}
			}
			return refsearch.SystemsEquivalent(sys, mut)
		})
		out = append(out, report)
	}
	return out
}

// referenceDiagnose realizes f as a cloned system and diagnoses it through
// core.Diagnose with a counting oracle over the clone.
func referenceDiagnose(t *testing.T, spec *cfsm.System, suite []cfsm.TestCase, f fault.Fault) (*cfsm.System, *core.SystemOracle, *core.Localization) {
	t.Helper()
	mut, err := f.Apply(spec)
	if err != nil {
		t.Fatalf("apply %s: %v", f.Describe(spec), err)
	}
	oracle := &core.SystemOracle{Sys: mut}
	loc, err := core.Diagnose(spec, suite, oracle)
	if err != nil {
		t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
	}
	return mut, oracle, loc
}

// TestSweepMatchesReference compares a sweep, mutant by mutant, with the
// serial library sweep (referenceSweep): fault order, outcome,
// exact-fault and equivalence flags, and the additional tests and inputs
// Step 6 spent must all be identical. The address fixture runs the sweep
// engine over E7's addressing faults.
func TestSweepMatchesReference(t *testing.T) {
	cfg := randgen.DefaultConfig()
	cfg.Seed = 1
	rand1 := randgen.MustGenerate(cfg)
	tour, _ := testgen.Tour(rand1, 0)
	fig := paper.MustFigure1()
	verif, _ := testgen.VerificationSuite(fig)
	for _, fx := range []struct {
		name   string
		spec   *cfsm.System
		suite  []cfsm.TestCase
		faults []fault.Fault
	}{
		{"figure1", fig, paper.TestSuite(), fault.Enumerate(fig)},
		{"rand-1", rand1, tour, fault.Enumerate(rand1)},
		{"figure1-address", fig, verif, fault.EnumerateAddress(fig)},
	} {
		t.Run(fx.name, func(t *testing.T) {
			want := referenceSweep(t, fx.spec, fx.suite, fx.faults)
			got, err := runSweepFaults(context.Background(), fx.spec, fx.suite, fx.faults, SweepOptions{Workers: 2, CheckEquivalence: true})
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

// TestRunCostMatchesReference pins E6 on Figure 1 at stride 1 to a serial
// reference that realizes every mutant with Fault.Apply and diagnoses it
// through core.Diagnose: the sample, the detections and both averages must
// be identical.
func TestRunCostMatchesReference(t *testing.T) {
	spec := paper.MustFigure1()
	suite, _ := testgen.Tour(spec, 0)
	var sampled, detected, tests, inputs int
	for _, f := range fault.Enumerate(spec) {
		sampled++
		_, oracle, loc := referenceDiagnose(t, spec, suite, f)
		if loc.Verdict == core.VerdictNoFault {
			continue
		}
		detected++
		tests += oracle.Tests - len(suite)
		for _, at := range loc.AdditionalTests {
			inputs += len(at.Test.Inputs)
		}
	}
	p, err := RunCost("figure1", spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	if p.MutantsSampled != sampled || p.MutantsDetected != detected {
		t.Fatalf("sampled/detected %d/%d, reference %d/%d", p.MutantsSampled, p.MutantsDetected, sampled, detected)
	}
	wantTests := float64(tests) / float64(detected)
	wantIn := float64(inputs) / float64(detected)
	if p.AvgAdaptiveTests != wantTests || p.AvgAdaptiveIn != wantIn {
		t.Fatalf("averages %v tests / %v inputs, reference %v / %v", p.AvgAdaptiveTests, p.AvgAdaptiveIn, wantTests, wantIn)
	}
}

// TestRunAddressSweepExact pins E7's result on Figure 1 with the
// verification suite, as the paper reproduction prints it.
func TestRunAddressSweepExact(t *testing.T) {
	spec := paper.MustFigure1()
	suite, _ := testgen.VerificationSuite(spec)
	res, err := RunAddressSweep(spec, suite)
	if err != nil {
		t.Fatal(err)
	}
	want := AddressSweepResult{Mutants: 22, Undetected: 0, Correct: 22, Wrong: 0}
	if res != want {
		t.Fatalf("address sweep %+v, want %+v", res, want)
	}
}

// TestRunDistObsFigure1Row pins E18's Figure 1 row as the paper
// reproduction prints it.
func TestRunDistObsFigure1Row(t *testing.T) {
	for _, workers := range []int{1, 4} {
		res, err := RunDistObs("figure1", paper.MustFigure1(), paper.TestSuite(), DistObsOptions{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		got := [8]int{res.Mutants, res.Detected, res.Enlarged, res.Recovered, res.Degraded, res.WrongConvictions, res.GlobalTests, res.LocalTests}
		want := [8]int{145, 45, 18, 18, 0, 0, 46, 65}
		if got != want {
			t.Errorf("workers=%d: row %v, want %v", workers, got, want)
		}
	}
}
