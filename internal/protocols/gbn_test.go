package protocols

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

func TestGoBackNBuilds(t *testing.T) {
	sys, err := GoBackN()
	if err != nil {
		t.Fatalf("GoBackN: %v", err)
	}
	// Sender: 4 bases × 3 window positions; receiver: 4 expectations.
	if got := len(sys.Machine(Sender).States()); got != 12 {
		t.Fatalf("sender states = %d, want 12", got)
	}
	if got := len(sys.Machine(Receiver).States()); got != 4 {
		t.Fatalf("receiver states = %d, want 4", got)
	}
	MustGoBackN()
}

func TestGoBackNWindowedExchange(t *testing.T) {
	sys := MustGoBackN()
	obs, err := sys.Run(GoBackNSuite()[0])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "-, dlv0^2, dlv1^2, slide2^1, s_b2n2^1, e2^2"
	if got := cfsm.FormatObs(obs); got != want {
		t.Fatalf("windowed = %q, want %q", got, want)
	}
}

func TestGoBackNRetransmission(t *testing.T) {
	sys := MustGoBackN()
	obs, err := sys.Run(GoBackNSuite()[1])
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := "-, dlv0^2, dlv1^2, disc^2, slide2^1, dlv2^2, e3^2"
	if got := cfsm.FormatObs(obs); got != want {
		t.Fatalf("go-back = %q, want %q", got, want)
	}
}

// TestGoBackNWindowClosed: a third send with the window full is undefined
// and observes ε — the window really is bounded.
func TestGoBackNWindowClosed(t *testing.T) {
	sys := MustGoBackN()
	tc := cfsm.TestCase{Inputs: []cfsm.Input{
		cfsm.Reset(),
		{Port: Sender, Sym: "send"},
		{Port: Sender, Sym: "send"},
		{Port: Sender, Sym: "send"}, // window (2) full
	}}
	obs, err := sys.Run(tc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if obs[3].Sym != cfsm.Epsilon {
		t.Fatalf("third send = %v, want ε (window closed)", obs[3])
	}
}

// TestGoBackNDiagnoseStuckWindow: the sender fails to slide its window on
// ack (a transfer fault in an ack transition) and the functional suite
// localizes it.
func TestGoBackNDiagnoseStuckWindow(t *testing.T) {
	spec := MustGoBackN()
	// Find the ack transition out of b0n2 on k2 (the one the windowed
	// scenario exercises).
	var ref cfsm.Ref
	for _, r := range spec.Refs() {
		tr, _ := spec.Transition(r)
		if tr.From == "b0n2" && tr.Input == "k2" {
			ref = r
			break
		}
	}
	if ref.Name == "" {
		t.Fatal("ack transition b0n2/k2 not found")
	}
	bug := fault.Fault{Ref: ref, Kind: fault.KindTransfer, To: "b0n2"}
	iut, err := bug.Apply(spec)
	if err != nil {
		t.Fatalf("apply: %v", err)
	}
	loc, err := core.Diagnose(spec, GoBackNSuite(), &core.SystemOracle{Sys: iut})
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if loc.Verdict != core.VerdictLocalized || *loc.Fault != bug {
		t.Fatalf("verdict = %v fault = %v\n%s%s",
			loc.Verdict, loc.Fault, loc.Analysis.Report(), loc.Report())
	}
}

// TestGoBackNSweepSampled: a sampled mutant sweep with the verification
// suite stays sound on the larger machine.
func TestGoBackNSweepSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("go-back-N sweep is slow")
	}
	spec := MustGoBackN()
	suite, _ := testgen.VerificationSuite(spec)
	faults := fault.Enumerate(spec)
	checked := 0
	for i := 0; i < len(faults); i += 31 { // sparse sample: the full sweep takes minutes
		f := faults[i]
		mutant, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		loc, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: mutant})
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
		}
		checked++
		switch loc.Verdict {
		case core.VerdictLocalized:
			if loc.Fault.Ref != f.Ref {
				t.Errorf("%s localized to %s", f.Describe(spec), loc.Fault.Describe(spec))
			}
		case core.VerdictAmbiguous:
			ok := false
			for _, r := range loc.Remaining {
				if r.Ref == f.Ref {
					ok = true
				}
			}
			if !ok {
				t.Errorf("%s ambiguous without the truth", f.Describe(spec))
			}
		case core.VerdictNoFault:
			// The verification suite guarantees detection of detectable
			// mutants; an undetected one must be equivalent.
			if !refsearch.SystemsEquivalent(spec, mutant) {
				t.Errorf("verification suite missed %s", f.Describe(spec))
			}
		default:
			t.Errorf("%s: verdict %v", f.Describe(spec), loc.Verdict)
		}
	}
	if checked == 0 {
		t.Fatal("no mutants sampled")
	}
}
