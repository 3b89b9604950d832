package core

import (
	"strings"
	"testing"

	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// TestAddressFaultLocalization: an addressing fault (outside the paper's
// fault model) is localized through the address-fault escalation tier once
// the original and combined hypothesis spaces are exhausted.
func TestAddressFaultLocalization(t *testing.T) {
	spec := paper.MustFigure1()
	f := fault.Fault{Ref: paper.Ref("M1", "t5"), Kind: fault.KindAddress, Dest: paper.M2}
	iut, err := f.Apply(spec)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	// Use a suite that exercises t5: tc2 of the paper plus the tour.
	suite, _ := testgen.Tour(spec, 0)
	suite = append(suite, paper.TestSuite()[1])

	oracle := &SystemOracle{Sys: iut}
	loc, err := Diagnose(spec, suite, oracle)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if !loc.Analysis.AddressEscalated {
		t.Fatalf("address escalation did not run (verdict %v)\n%s", loc.Verdict, loc.Analysis.Report())
	}
	if loc.Verdict != VerdictLocalized {
		t.Fatalf("verdict = %v\n%s%s", loc.Verdict, loc.Analysis.Report(), loc.Report())
	}
	if *loc.Fault != f {
		t.Fatalf("fault = %+v, want %+v", *loc.Fault, f)
	}
	if !strings.Contains(loc.Analysis.Report(), "addresses[t5]") {
		t.Errorf("report missing address hypotheses:\n%s", loc.Analysis.Report())
	}
}

// TestAddressEscalationIdempotent: the second run is a no-op.
func TestAddressEscalationIdempotent(t *testing.T) {
	a := paperAnalysis(t)
	a.EscalateAddress()
	n := len(a.Diagnoses)
	if a.EscalateAddress() {
		t.Error("second address escalation reported new diagnoses")
	}
	if len(a.Diagnoses) != n {
		t.Errorf("diagnoses changed from %d to %d", n, len(a.Diagnoses))
	}
}

// TestAddressSweep: every addressing-fault mutant of the Figure 1 system
// detected by the verification suite is localized to the correct transition.
func TestAddressSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("address sweep is slow")
	}
	spec := paper.MustFigure1()
	suite, _ := testgen.VerificationSuite(spec)
	detected, correct := 0, 0
	for _, f := range fault.EnumerateAddress(spec) {
		mutant, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &SystemOracle{Sys: mutant}
		loc, err := Diagnose(spec, suite, oracle)
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
		}
		switch loc.Verdict {
		case VerdictNoFault:
			continue
		case VerdictLocalized:
			detected++
			if loc.Fault.Ref == f.Ref {
				correct++
			} else {
				t.Errorf("%s localized to wrong transition %s",
					f.Describe(spec), loc.Fault.Describe(spec))
			}
		case VerdictAmbiguous:
			detected++
			found := false
			for _, r := range loc.Remaining {
				if r.Ref == f.Ref {
					found = true
				}
			}
			if found {
				correct++
			} else {
				t.Errorf("%s ambiguous without the true transition", f.Describe(spec))
			}
		default:
			detected++
			t.Errorf("%s: verdict %v", f.Describe(spec), loc.Verdict)
		}
	}
	if detected == 0 {
		t.Fatal("no addressing mutants detected")
	}
	t.Logf("address sweep: %d/%d detected mutants correctly attributed", correct, detected)
}
