package core

import (
	"reflect"
	"testing"

	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// TestDiagnoseReleasesEngine pins the library path's engine reuse: Diagnose
// without WithEngine releases the engine it built once the localization
// returns, and the returned analysis rebuilds one on its next use — giving
// the same hypothesis verdicts and planned tests as an analysis whose engine
// was kept — while a diagnosis drawing the released engine from the pool
// allocates less than one that builds its engine from nothing.
func TestDiagnoseReleasesEngine(t *testing.T) {
	spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 2})
	suite, _ := testgen.Tour(spec, 0)
	faults := fault.Enumerate(spec)
	planned := 0
	for i := 0; i < len(faults); i += 7 {
		iut, err := faults[i].Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		loc, err := Diagnose(spec, suite, &SystemOracle{Sys: iut})
		if err != nil {
			t.Fatal(err)
		}
		if loc.Analysis.eng != nil {
			t.Fatalf("mutant %d: Diagnose kept the engine it built", i)
		}
		observed, err := iut.RunSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		kept, err := Analyze(spec, suite, observed)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Localize(kept, &SystemOracle{Sys: iut}); err != nil {
			t.Fatal(err)
		}
		got, want := SuggestNextTests(loc.Analysis), SuggestNextTests(kept)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("mutant %d: SuggestNextTests after release %v, kept engine %v", i, got, want)
		}
		planned += len(got)
		for j := 0; j < len(faults); j += 5 {
			if got, want := loc.Analysis.explains(faults[j]), kept.explains(faults[j]); got != want {
				t.Errorf("mutant %d: explains(%s) after release %v, kept engine %v",
					i, faults[j].Describe(spec), got, want)
			}
		}
	}
	if planned == 0 {
		t.Error("no mutant left tests to plan; the comparison is vacuous")
	}

	iut, err := faults[0].Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Without the release, every diagnosis builds its engine from nothing:
	// an engine the caller hands in stays the caller's, and nothing hands it
	// back to the pool.
	built := testing.AllocsPerRun(20, func() {
		eng, err := compiled.NewEngine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Diagnose(spec, suite, &SystemOracle{Sys: iut}, WithEngine(eng)); err != nil {
			t.Fatal(err)
		}
	})
	released := testing.AllocsPerRun(20, func() {
		if _, err := Diagnose(spec, suite, &SystemOracle{Sys: iut}); err != nil {
			t.Fatal(err)
		}
	})
	// The released engine saves 24 allocations a diagnosis here (its runner,
	// search arena and visited array, analysis scratch). The pool may drop
	// what it is given — a garbage collection empties it, and under -race
	// a quarter of the releases are dropped at random — so the test asks
	// for a quarter of that.
	if built-released < 6 {
		t.Errorf("allocations per diagnosis: %.0f with the engine released, %.0f with it built each time; want at least 6 fewer",
			released, built)
	}
}
