package multifault

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

// TestDoubleFaultSampledSweep injects sampled random pairs of in-model
// faults on distinct transitions of the Figure 1 system and checks the
// at-most-two-faults diagnosis is sound: whenever it convicts, the convicted
// transitions are exactly the injected ones (or an ambiguity set containing
// them survives); it never reports the observations as inconsistent. Every
// localization is pinned byte for byte by testdata/sweep.golden.
func TestDoubleFaultSampledSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("double-fault sweep is slow")
	}
	spec := paper.MustFigure1()
	suite, _ := testgen.VerificationSuite(spec)
	all := fault.Enumerate(spec)
	rng := rand.New(rand.NewSource(99))

	var golden strings.Builder
	trials := 0
	for trials < 6 {
		f1 := all[rng.Intn(len(all))]
		f2 := all[rng.Intn(len(all))]
		if f1.Ref == f2.Ref {
			continue
		}
		trials++
		h := Hypothesis{Faults: []fault.Fault{f1, f2}}
		iut, err := h.Apply(spec)
		if err != nil {
			t.Fatalf("apply %s: %v", h.Describe(spec), err)
		}
		loc, err := Diagnose(spec, suite, &core.SystemOracle{Sys: iut}, Options{})
		if err != nil {
			t.Fatalf("diagnose %s: %v", h.Describe(spec), err)
		}
		renderLocalization(&golden, h.Describe(spec), spec, loc)
		wantRefs := map[cfsm.Ref]bool{f1.Ref: true, f2.Ref: true}
		switch loc.Verdict {
		case core.VerdictNoFault:
			// Both faults may cancel out observationally; rare but legal.
		case core.VerdictLocalized:
			for _, f := range loc.Localized.Faults {
				if !wantRefs[f.Ref] {
					t.Errorf("%s: convicted foreign transition %s",
						h.Describe(spec), f.Describe(spec))
				}
			}
		case core.VerdictAmbiguous:
			found := false
			for _, rem := range loc.Remaining {
				ok := true
				for _, f := range rem.Faults {
					if !wantRefs[f.Ref] {
						ok = false
					}
				}
				if ok && len(rem.Faults) > 0 {
					found = true
				}
			}
			if !found {
				t.Errorf("%s: ambiguity without a truth-compatible hypothesis (%d remaining)",
					h.Describe(spec), len(loc.Remaining))
			}
		default:
			t.Errorf("%s: verdict %v", h.Describe(spec), loc.Verdict)
		}
	}
	checkGolden(t, "sweep.golden", golden.String())
}
