package main

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
)

// TestCLIDiagnoseConforms is the CLI's row of the cross-surface verdict
// contract (core's TestSurfacesConform cannot call package main): for every
// single-transition and addressing mutant of Figure 1, `diagnose -spec -iut
// -suite` with the paper's suite must print, byte for byte, the library's
// walkthrough and localization reports and the cost of core.Diagnose with a
// SystemOracle on the same inputs.
func TestCLIDiagnoseConforms(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	specPath := writeSystem(t, spec, "spec.json")
	suiteData, err := marshalSuite(suite)
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	suitePath := filepath.Join(t.TempDir(), "suite.json")
	if err := os.WriteFile(suitePath, suiteData, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	faults := append(fault.Enumerate(spec), fault.EnumerateAddress(spec)...)
	if len(faults) != 145+22 {
		t.Fatalf("%d mutants, want Figure 1's 145 single-transition and 22 addressing mutants", len(faults))
	}
	for _, f := range faults {
		name := f.Describe(spec)
		iut, err := f.Apply(spec)
		if err != nil {
			t.Fatalf("apply %s: %v", name, err)
		}
		oracle := &core.SystemOracle{Sys: iut}
		loc, err := core.Diagnose(spec, suite, oracle)
		if err != nil {
			t.Fatalf("%s: core.Diagnose: %v", name, err)
		}
		want := loc.Analysis.Report() + loc.Report() +
			fmt.Sprintf("cost: %d tests, %d inputs (suite: %d tests)\n", oracle.Tests, oracle.Inputs, len(suite))

		got, err := runCLI(t, "diagnose", "-spec", specPath, "-iut", writeSystem(t, iut, "iut.json"), "-suite", suitePath)
		if err != nil {
			t.Fatalf("%s: diagnose: %v", name, err)
		}
		if got != want {
			t.Errorf("%s: CLI output differs from the library's\ngot:\n%s\nwant:\n%s", name, got, want)
		}
	}
}
