// Differential tests for the compiled analysis path (Engine.Analyze):
// the exported Analysis must serialize byte-for-byte identically under the
// compiled and the interpreted engine, and engines sharing one Program (the
// sweep's worker layout) must stay independent under the race detector.
package compiled_test

import (
	"reflect"
	"sync"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
)

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
