// Differential tests pinning the compiled engine, which runs every
// production diagnosis, to the interpreted reference engine (Reference):
// Analyses and Localizations of every mutant of the fixture corpus must be
// identical, engines sharing one Program must stay independent under the
// race detector, and an engine built for another specification is ignored.
package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

type fixture struct {
	name  string
	sys   *cfsm.System
	suite []cfsm.TestCase
}

// fixtures returns the differential corpus: the paper's Figure 1 with its
// Table 1 suite, the three protocol systems with their suites, and seeded
// random systems with transition-tour suites.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	out = append(out, fixture{"figure1", fig, paper.TestSuite()})
	for _, p := range []struct {
		name  string
		build func() (*cfsm.System, error)
		suite func() []cfsm.TestCase
	}{
		{"abp", protocols.ABP, protocols.ABPSuite},
		{"gbn", protocols.GoBackN, protocols.GoBackNSuite},
		{"relay", protocols.Relay, protocols.RelaySuite},
	} {
		sys, err := p.build()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, fixture{p.name, sys, p.suite()})
	}
	for _, seed := range []int64{1, 7, 42} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("randgen seed %d: %v", seed, err)
		}
		suite, _ := testgen.Tour(sys, 0)
		out = append(out, fixture{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	return out
}

// allFaults is the legal single-transition fault space including the
// addressing extension.
func allFaults(sys *cfsm.System) []fault.Fault {
	return append(fault.Enumerate(sys), fault.EnumerateAddress(sys)...)
}

// locView projects the engine-independent content of a localization for deep
// comparison (the Analysis pointer itself holds the engine and is excluded).
type locView struct {
	Verdict      core.Verdict
	Fault        *fault.Fault
	Remaining    []fault.Fault
	Cleared      []cfsm.Ref
	Inconclusive []cfsm.Ref
	Additional   []core.AdditionalTest
	Diagnoses    []fault.Fault
	UST          *cfsm.Ref
	Flag         bool
}

func view(l *core.Localization) locView {
	return locView{
		Verdict:      l.Verdict,
		Fault:        l.Fault,
		Remaining:    l.Remaining,
		Cleared:      l.Cleared,
		Inconclusive: l.Inconclusive,
		Additional:   l.AdditionalTests,
		Diagnoses:    l.Analysis.Diagnoses,
		UST:          l.Analysis.UST,
		Flag:         l.Analysis.Flag,
	}
}

// TestDiagnosisMatchesInterpreted diagnoses every mutant of every fixture
// twice — interpreted engine with a cloned-system oracle, compiled engine
// with an overlay oracle — and requires byte-identical localizations: the
// verdict, the convicted fault, surviving hypotheses, cleared transitions,
// the full additional-test log (names, inputs, observations, elimination
// evidence) and the oracle's test/input cost.
func TestDiagnosisMatchesInterpreted(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := compiled.NewEngine(fx.sys)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			p := eng.Program()
			oracleR := p.NewRunner()
			for _, f := range allFaults(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
				}
				iOracle := &core.SystemOracle{Sys: mut}
				iLoc, iErr := core.Diagnose(fx.sys, fx.suite, iOracle, reference)

				ov, ok := p.OverlayFor(f)
				if !ok {
					t.Fatalf("no overlay for legal fault %s", f.Describe(fx.sys))
				}
				oracleR.SetOverlay(ov)
				cOracle := &compiled.Oracle{R: oracleR}
				cLoc, cErr := core.Diagnose(fx.sys, fx.suite, cOracle, core.WithEngine(eng))

				if (iErr == nil) != (cErr == nil) ||
					(iErr != nil && iErr.Error() != cErr.Error()) {
					t.Fatalf("%s: error mismatch: interpreted %v, compiled %v", f.Describe(fx.sys), iErr, cErr)
				}
				if iErr != nil {
					continue
				}
				if iOracle.Tests != cOracle.Tests || iOracle.Inputs != cOracle.Inputs {
					t.Errorf("%s: oracle cost diverges: interpreted %d tests/%d inputs, compiled %d/%d",
						f.Describe(fx.sys), iOracle.Tests, iOracle.Inputs, cOracle.Tests, cOracle.Inputs)
				}
				if iv, cv := view(iLoc), view(cLoc); !reflect.DeepEqual(iv, cv) {
					t.Errorf("%s: localization diverges:\ninterpreted %+v\ncompiled    %+v",
						f.Describe(fx.sys), iv, cv)
				}
			}
		})
	}
}

// analysisView projects every exported Analysis field for deep comparison
// (the struct itself additionally holds the unexported engine).
type analysisView struct {
	Expected, Observed [][]cfsm.Observation
	Symptoms           []core.Symptom
	FirstSymptom       map[int]int
	UST                *cfsm.Ref
	USO                cfsm.Symbol
	Flag               bool
	Conflicts          map[int]core.MachineSets
	ITC                core.MachineSets
	UstSet             []cfsm.Ref
	FTCtr, FTCco       core.MachineSets
	EndStates          map[cfsm.Ref][]cfsm.State
	Outputs            map[cfsm.Ref][]cfsm.Symbol
	StatOut            map[cfsm.Ref][]core.StateOutput
	DCtr, DCco         core.MachineSets
	Diagnoses          []fault.Fault
	Addresses          map[cfsm.Ref][]int
	AddressEscalated   bool
	Escalated          bool
	Report             string
}

func viewAnalysis(a *core.Analysis) analysisView {
	return analysisView{
		Expected: a.Expected, Observed: a.Observed,
		Symptoms: a.Symptoms, FirstSymptom: a.FirstSymptom,
		UST: a.UST, USO: a.USO, Flag: a.Flag,
		Conflicts: a.Conflicts, ITC: a.ITC, UstSet: a.UstSet,
		FTCtr: a.FTCtr, FTCco: a.FTCco,
		EndStates: a.EndStates, Outputs: a.Outputs, StatOut: a.StatOut,
		DCtr: a.DCtr, DCco: a.DCco, Diagnoses: a.Diagnoses,
		Addresses: a.Addresses, AddressEscalated: a.AddressEscalated,
		Escalated: a.Escalated, Report: a.Report(),
	}
}

// TestAnalysisMatchesInterpreted runs Steps 1–5 on every mutant of every
// fixture under both engines and requires every exported Analysis field —
// entry presence, slice order and nil-ness included — plus the rendered
// report to be identical, since the server and the report renderer expose
// the struct as is.
func TestAnalysisMatchesInterpreted(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := compiled.NewEngine(fx.sys)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			suite := fx.suite
			eng.SetSuite(compiled.NewSuite(eng.Program(), suite))
			for _, f := range allFaults(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
				}
				observed, err := mut.RunSuite(suite)
				if err != nil {
					continue
				}
				iA, iErr := core.Analyze(fx.sys, suite, observed, reference)
				cA, cErr := core.Analyze(fx.sys, suite, observed, core.WithEngine(eng))
				if (iErr == nil) != (cErr == nil) ||
					(iErr != nil && iErr.Error() != cErr.Error()) {
					t.Fatalf("%s: error mismatch: interpreted %v, compiled %v", f.Describe(fx.sys), iErr, cErr)
				}
				if iErr != nil {
					continue
				}
				if iv, cv := viewAnalysis(iA), viewAnalysis(cA); !reflect.DeepEqual(iv, cv) {
					t.Errorf("%s: Analysis diverges:\ninterpreted %+v\ncompiled    %+v",
						f.Describe(fx.sys), iv, cv)
				}
			}
		})
	}
}

// TestEngineSharingAcrossWorkers exercises the documented concurrency
// contract — one goroutine per Engine over a shared, immutable Program and
// Suite — exactly as the sweep's worker pool shares them. Run under -race it
// proves the sharing touches no unsynchronized state; the per-worker verdicts
// must also agree with the interpreted reference diagnosis.
func TestEngineSharingAcrossWorkers(t *testing.T) {
	fx := fixtures(t)[0] // figure1
	prog, err := compiled.Compile(fx.sys)
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	csuite := compiled.NewSuite(prog, fx.suite)
	faults := fault.Enumerate(fx.sys)

	// Reference verdicts.
	want := make([]core.Verdict, len(faults))
	for i, f := range faults {
		mut, err := f.Apply(fx.sys)
		if err != nil {
			t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
		}
		loc, err := core.Diagnose(fx.sys, fx.suite, &core.SystemOracle{Sys: mut}, reference)
		if err != nil {
			t.Fatalf("diagnose %s: %v", f.Describe(fx.sys), err)
		}
		want[i] = loc.Verdict
	}

	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			eng, err := compiled.EngineFor(prog)
			if err != nil {
				errs <- err
				return
			}
			eng.SetSuite(csuite)
			oracleR := prog.NewRunner()
			for i := w; i < len(faults); i += workers {
				ov, _ := prog.OverlayFor(faults[i])
				oracleR.SetOverlay(ov)
				loc, err := core.Diagnose(fx.sys, fx.suite, &compiled.Oracle{R: oracleR}, core.WithEngine(eng))
				if err != nil {
					errs <- err
					return
				}
				if loc.Verdict != want[i] {
					t.Errorf("worker %d: %s: verdict %v, serial %v",
						w, faults[i].Describe(fx.sys), loc.Verdict, want[i])
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestWithEngineIgnoresForeignSpec pins the guard on WithEngine: an engine
// built for a different specification must not analyze this one — core
// builds the right engine instead, so the Analysis equals the reference.
func TestWithEngineIgnoresForeignSpec(t *testing.T) {
	fxs := fixtures(t)
	figure1, abp := fxs[0], fxs[1]
	eng, err := compiled.NewEngine(abp.sys)
	if err != nil {
		t.Fatal(err)
	}
	f := fault.Enumerate(figure1.sys)[0]
	mut, err := f.Apply(figure1.sys)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := mut.RunSuite(figure1.suite)
	if err != nil {
		t.Fatal(err)
	}
	got, err := core.Analyze(figure1.sys, figure1.suite, observed, core.WithEngine(eng))
	if err != nil {
		t.Fatalf("Analyze: %v", err)
	}
	want, err := core.Analyze(figure1.sys, figure1.suite, observed, reference)
	if err != nil {
		t.Fatal(err)
	}
	if gv, wv := viewAnalysis(got), viewAnalysis(want); !reflect.DeepEqual(gv, wv) {
		t.Errorf("foreign engine changed the analysis:\ngot  %+v\nwant %+v", gv, wv)
	}
}

// TestLibraryMatchesReference pins the library entry point with no engine
// option — what the sweep and the server compare themselves against — to
// the interpreted reference on the sweep's and the server's fixtures: every
// mutant of Figure 1 and of randgen seed 1 (the sweep's), and the first 32
// mutants of the randgen 4×4 seed-1 system (the server's), must localize
// identically, at the same oracle cost.
func TestLibraryMatchesReference(t *testing.T) {
	rand44 := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 1})
	tour44, _ := testgen.Tour(rand44, 0)
	all := fixtures(t) // figure1, abp, gbn, relay, rand-1, ...
	for _, fx := range []struct {
		fixture
		mutants int
	}{{all[0], -1}, {all[4], -1}, {fixture{"rand44-1", rand44, tour44}, 32}} {
		t.Run(fx.name, func(t *testing.T) {
			faults := fault.Enumerate(fx.sys)
			if fx.mutants >= 0 {
				faults = faults[:fx.mutants]
			}
			for _, f := range faults {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
				}
				lOracle, rOracle := &core.SystemOracle{Sys: mut}, &core.SystemOracle{Sys: mut}
				lLoc, err := core.Diagnose(fx.sys, fx.suite, lOracle)
				if err != nil {
					t.Fatal(err)
				}
				rLoc, err := core.Diagnose(fx.sys, fx.suite, rOracle, reference)
				if err != nil {
					t.Fatal(err)
				}
				if lOracle.Tests != rOracle.Tests || lOracle.Inputs != rOracle.Inputs {
					t.Errorf("%s: oracle cost: library %d tests/%d inputs, reference %d/%d",
						f.Describe(fx.sys), lOracle.Tests, lOracle.Inputs, rOracle.Tests, rOracle.Inputs)
				}
				if lv, rv := view(lLoc), view(rLoc); !reflect.DeepEqual(lv, rv) {
					t.Errorf("%s: localization diverges:\nlibrary   %+v\nreference %+v", f.Describe(fx.sys), lv, rv)
				}
			}
		})
	}
}
