package async

import (
	"math/rand"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// projectSuite converts a synchronized test suite into unsynchronized
// scripts by projecting each test case onto its ports. The projection loses
// the inter-port ordering, so detection power drops — but the analysis must
// stay conservative: no false detection on a conforming implementation and
// no wrong conviction on mutants.
func projectSuite(sys *cfsm.System, suite []cfsm.TestCase) []Script {
	var out []Script
	for _, tc := range suite {
		s := Script{Name: tc.Name, Inputs: make([][]cfsm.Symbol, sys.N())}
		for _, in := range tc.Inputs {
			if in.IsReset() {
				continue // every script starts from the initial configuration
			}
			s.Inputs[in.Port] = append(s.Inputs[in.Port], in.Sym)
		}
		out = append(out, s)
	}
	return out
}

// TestAsyncConservativeOnSpec: projected scripts never flag the conforming
// implementation.
func TestAsyncConservativeOnSpec(t *testing.T) {
	spec := paper.MustFigure1()
	scripts := projectSuite(spec, paper.TestSuite())
	oracle := &RandomOracle{Sys: spec, Rng: rand.New(rand.NewSource(2))}
	loc, err := Diagnose(spec, scripts, oracle)
	if err != nil {
		t.Fatalf("Diagnose: %v", err)
	}
	if loc.Verdict != core.VerdictNoFault {
		t.Fatalf("verdict = %v, want no fault", loc.Verdict)
	}
}

// TestAsyncSweepSampled: over sampled mutants, the unsynchronized diagnosis
// is sound — it never convicts a wrong transition and never declares
// in-model observations inconsistent. Detection is naturally weaker than in
// the synchronized setting (the projection loses ordering), which the test
// records but does not require. Every localization is pinned byte for byte
// by testdata/sweep.golden.
func TestAsyncSweepSampled(t *testing.T) {
	if testing.Short() {
		t.Skip("async sweep is slow")
	}
	spec := paper.MustFigure1()
	// Short scripts only: interleaving exploration is multinomial in the
	// per-port lengths, so projecting long tours is intractable. Splitting
	// the tour into per-port probes keeps each script race-free.
	scripts := projectSuite(spec, paper.TestSuite())
	syncSuite, _ := testgen.Tour(spec, 6)
	for _, tc := range syncSuite {
		for port := 0; port < spec.N(); port++ {
			s := projectSuite(spec, []cfsm.TestCase{tc})[0]
			single := Script{Name: tc.Name, Inputs: make([][]cfsm.Symbol, spec.N())}
			single.Inputs[port] = s.Inputs[port]
			if len(single.Inputs[port]) > 0 {
				scripts = append(scripts, single)
			}
		}
	}
	faults := fault.Enumerate(spec)
	var golden strings.Builder
	detected, correct := 0, 0
	for i := 0; i < len(faults); i += 5 {
		f := faults[i]
		mutant, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		oracle := &RandomOracle{Sys: mutant, Rng: rand.New(rand.NewSource(int64(i)))}
		loc, err := Diagnose(spec, scripts, oracle)
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(spec), err)
		}
		renderLocalization(&golden, f.Describe(spec), spec, loc)
		switch loc.Verdict {
		case core.VerdictNoFault:
			// The observed interleaving happened to be explainable; fine.
		case core.VerdictLocalized:
			detected++
			if loc.Localized.Ref == f.Ref {
				correct++
			} else {
				t.Errorf("%s convicted as %s", f.Describe(spec), loc.Localized.Describe(spec))
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
	checkGolden(t, "sweep.golden", golden.String())
	if detected == 0 {
		t.Fatal("no mutant was detected by the projected scripts")
	}
	t.Logf("async sampled sweep: %d/%d detected mutants correctly attributed", correct, detected)
}
