package protocols

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

func TestABPBuilds(t *testing.T) {
	sys, err := ABP()
	if err != nil {
		t.Fatalf("ABP: %v", err)
	}
	if sys.N() != 2 {
		t.Fatalf("N = %d", sys.N())
	}
	MustABP()
}

func TestABPCleanExchange(t *testing.T) {
	sys := MustABP()
	suite := ABPSuite()
	obs, err := sys.Run(suite[0])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "-, deliver0^2, done0^1, deliver1^2, done1^1, ready0^1, expect0^2"
	if got := cfsm.FormatObs(obs); got != want {
		t.Fatalf("clean exchange = %q, want %q", got, want)
	}
}

func TestABPRetransmission(t *testing.T) {
	sys := MustABP()
	obs, err := sys.Run(ABPSuite()[1])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "-, deliver0^2, dup^2, done0^1, ready1^1"
	if got := cfsm.FormatObs(obs); got != want {
		t.Fatalf("retransmission = %q, want %q", got, want)
	}
}

func TestABPStaleAck(t *testing.T) {
	sys := MustABP()
	obs, err := sys.Run(ABPSuite()[2])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "-, deliver0^2, done0^1, deliver1^2, done1^1, deliver0^2, dup^2, expect1^2"
	if got := cfsm.FormatObs(obs); got != want {
		t.Fatalf("stale-ack = %q, want %q", got, want)
	}
}

// TestABPDiagnoseBitToggleBug: the classic ABP bug — the sender fails to
// toggle its bit after done0 (ack0 transfers to r0 instead of r1) — is
// detected by the regression suite and localized.
func TestABPDiagnoseBitToggleBug(t *testing.T) {
	spec := MustABP()
	bug := fault.Fault{Ref: cfsm.Ref{Machine: Sender, Name: "ack0"}, Kind: fault.KindTransfer, To: "r0"}
	iut, err := bug.Apply(spec)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	loc, err := core.Diagnose(spec, ABPSuite(), &core.SystemOracle{Sys: iut})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if loc.Verdict != core.VerdictLocalized {
		t.Fatalf("verdict = %v\n%s%s", loc.Verdict, loc.Analysis.Report(), loc.Report())
	}
	if *loc.Fault != bug {
		t.Fatalf("fault = %+v, want %+v", *loc.Fault, bug)
	}
}

// TestABPDiagnoseWrongAck: the receiver acknowledges the wrong bit (sak0
// outputs a1 instead of a0) — an internal output fault.
func TestABPDiagnoseWrongAck(t *testing.T) {
	spec := MustABP()
	bug := fault.Fault{Ref: cfsm.Ref{Machine: Receiver, Name: "sak0"}, Kind: fault.KindOutput, Output: "a1"}
	iut, err := bug.Apply(spec)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	loc, err := core.Diagnose(spec, ABPSuite(), &core.SystemOracle{Sys: iut})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if loc.Verdict != core.VerdictLocalized {
		t.Fatalf("verdict = %v\n%s%s", loc.Verdict, loc.Analysis.Report(), loc.Report())
	}
	if *loc.Fault != bug {
		t.Fatalf("fault = %+v, want %+v", *loc.Fault, bug)
	}
}

// TestABPSweep: every detectable single-transition mutant of the ABP model
// is detected by the verification suite and localized to the correct
// transition.
func TestABPSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("ABP sweep is slow")
	}
	spec := MustABP()
	suite, undetectable := testgen.VerificationSuite(spec)
	for _, f := range undetectable {
		t.Logf("undetectable: %s", f.Describe(spec))
	}
	detected, correct := 0, 0
	skip := make(map[string]bool)
	for _, f := range undetectable {
		skip[f.Describe(spec)] = true
	}
	for _, f := range fault.Enumerate(spec) {
		if skip[f.Describe(spec)] {
			continue
		}
		mutant, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		loc, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: mutant})
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
		}
		switch loc.Verdict {
		case core.VerdictNoFault:
			t.Errorf("verification suite missed %s", f.Describe(spec))
		case core.VerdictLocalized:
			detected++
			if loc.Fault.Ref == f.Ref {
				correct++
			} else {
				t.Errorf("%s localized to %s", f.Describe(spec), loc.Fault.Describe(spec))
			}
		case core.VerdictAmbiguous:
			detected++
			ok := false
			for _, r := range loc.Remaining {
				if r.Ref == f.Ref {
					ok = true
				}
			}
			if ok {
				correct++
			} else {
				t.Errorf("%s ambiguous without the truth", f.Describe(spec))
			}
		default:
			t.Errorf("%s: verdict %v", f.Describe(spec), loc.Verdict)
		}
	}
	t.Logf("ABP sweep: %d/%d detected mutants correctly attributed", correct, detected)
	if detected == 0 || correct != detected {
		t.Errorf("sweep: %d/%d", correct, detected)
	}
}
