package async

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

// renderLocalization appends one localization in the golden format: the
// verdict, every hypothesis the analysis kept, the localized and remaining
// hypotheses, and the probes with their per-port inputs.
func renderLocalization(b *strings.Builder, name string, spec *cfsm.System, loc *Localization) {
	fmt.Fprintf(b, "== %s\nverdict: %v\n", name, loc.Verdict)
	for _, f := range loc.Analysis.Hypotheses {
		fmt.Fprintf(b, "hypothesis: %s\n", f.Describe(spec))
	}
	if loc.Localized != nil {
		fmt.Fprintf(b, "localized: %s\n", loc.Localized.Describe(spec))
	}
	for _, f := range loc.Remaining {
		fmt.Fprintf(b, "remaining: %s\n", f.Describe(spec))
	}
	for _, p := range loc.Probes {
		fmt.Fprintf(b, "probe %s: %v\n", p.Name, p.Inputs)
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

// TestAsyncDemoGolden pins the localization of experiment E9: the paper's
// fault observed through one racing script, localized by single-port
// probes.
func TestAsyncDemoGolden(t *testing.T) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	racing := Script{Inputs: [][]cfsm.Symbol{{"c"}, {"d'"}, {"c'", "v", "v"}}}
	oracle := &RandomOracle{Sys: iut, Rng: rand.New(rand.NewSource(1))}
	loc, err := Diagnose(spec, []Script{racing}, oracle)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	renderLocalization(&b, "E9 racing script", spec, loc)
	checkGolden(t, "demo.golden", b.String())
}
