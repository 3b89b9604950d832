package multifault

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// renderLocalization appends one localization in the golden format: the
// verdict, every hypothesis the analysis kept, the localized and remaining
// hypotheses, and the additional tests with their inputs.
func renderLocalization(b *strings.Builder, name string, spec *cfsm.System, loc *Localization) {
	fmt.Fprintf(b, "== %s\nverdict: %v\n", name, loc.Verdict)
	for _, h := range loc.Analysis.Hypotheses {
		fmt.Fprintf(b, "hypothesis: %s\n", h.Describe(spec))
	}
	if loc.Localized != nil {
		fmt.Fprintf(b, "localized: %s\n", loc.Localized.Describe(spec))
	}
	for _, h := range loc.Remaining {
		fmt.Fprintf(b, "remaining: %s\n", h.Describe(spec))
	}
	for _, tc := range loc.AdditionalTests {
		fmt.Fprintf(b, "test %s: %s\n", tc.Name, cfsm.FormatInputs(tc.Inputs))
	}
}

// checkGolden compares got with testdata/name byte for byte. The goldens
// were generated with the interpreted search the compiled one replaced, so
// a difference is a parity failure, not a file to regenerate.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := "testdata/" + name
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("localizations differ from %s:\n--- want\n%s\n+++ got\n%s", path, want, got)
	}
}

// TestDoubleFaultDemoGolden pins the localization of experiment E8's
// double fault (M1.t7 outputs c', M2.t'4 outputs a) diagnosed with the
// verification suite.
func TestDoubleFaultDemoGolden(t *testing.T) {
	spec := paper.MustFigure1()
	h := Hypothesis{Faults: []fault.Fault{
		{Ref: paper.Ref("M1", "t7"), Kind: fault.KindOutput, Output: "c'"},
		{Ref: paper.Ref("M2", "t'4"), Kind: fault.KindOutput, Output: "a"},
	}}
	iut, err := h.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := testgen.VerificationSuite(spec)
	loc, err := Diagnose(spec, suite, &core.SystemOracle{Sys: iut}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderLocalization(&b, h.Describe(spec), spec, loc)
	checkGolden(t, "demo.golden", b.String())
}
