// Differential tests pinning the distributed-observation pipeline to the
// classical one: under the default single-observer map every entry point
// must be byte-identical to core, and under real multi-port maps a conviction
// must never be wrong — surviving ambiguity degrades to the inconclusive
// taxonomy instead.
package ports_test

import (
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/trace"
)

// analysisView projects every exported Analysis field for deep comparison
// (mirroring internal/compiled's differential harness).
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

// locView projects every exported Localization field, with the embedded
// Analysis flattened through analysisView.
type locView struct {
	Analysis         analysisView
	Verdict          core.Verdict
	Fault            *fault.Fault
	Remaining        []fault.Fault
	Cleared          []cfsm.Ref
	Inconclusive     []cfsm.Ref
	LocallyAmbiguous []cfsm.Ref
	AdditionalTests  []core.AdditionalTest
	Report           string
}

func viewLocalization(l *core.Localization) locView {
	return locView{
		Analysis: viewAnalysis(l.Analysis), Verdict: l.Verdict, Fault: l.Fault,
		Remaining: l.Remaining, Cleared: l.Cleared, Inconclusive: l.Inconclusive,
		LocallyAmbiguous: l.LocallyAmbiguous, AdditionalTests: l.AdditionalTests,
		Report: l.Report(),
	}
}

// TestSinglePortAnalyzeByteIdentical pins the acceptance criterion: with the
// default single-observer map, AnalyzeObserved must reproduce core.Analyze
// byte for byte — entry presence, slice order, nil-ness and the rendered
// report included — over every fixture × every single-transition mutant.
func TestSinglePortAnalyzeByteIdentical(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			def := ports.Default(fx.sys)
			for _, f := range fault.Enumerate(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				observed, err := mut.RunSuite(fx.suite)
				if err != nil {
					continue
				}
				want, wantErr := core.Analyze(fx.sys, fx.suite, observed)
				got, rep, gotErr := ports.AnalyzeObserved(fx.sys, fx.suite, observed, def)
				if (wantErr == nil) != (gotErr == nil) ||
					(wantErr != nil && wantErr.Error() != gotErr.Error()) {
					t.Fatalf("%s: error mismatch: core %v, ports %v", f.Describe(fx.sys), wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if !rep.Single {
					t.Fatal("default map not reported as single")
				}
				if wv, gv := viewAnalysis(want), viewAnalysis(got); !reflect.DeepEqual(wv, gv) {
					t.Fatalf("%s: Analysis diverges under the default map:\ncore  %+v\nports %+v",
						f.Describe(fx.sys), wv, gv)
				}
			}
		})
	}
}

// TestSinglePortDiagnoseByteIdentical extends the identity to the full
// adaptive pipeline (Step 6 included) on the corpus' cheaper fixtures.
func TestSinglePortDiagnoseByteIdentical(t *testing.T) {
	for _, fx := range fixtures(t) {
		if fx.name != "figure1" && fx.name != "relay" {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			def := ports.Default(fx.sys)
			for _, f := range fault.Enumerate(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				want, wantErr := core.Diagnose(fx.sys, fx.suite, &core.SystemOracle{Sys: mut})
				got, _, gotErr := ports.Diagnose(fx.sys, fx.suite, &core.SystemOracle{Sys: mut}, def)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("%s: error mismatch: core %v, ports %v", f.Describe(fx.sys), wantErr, gotErr)
				}
				if wantErr != nil {
					continue
				}
				if wv, gv := viewLocalization(want), viewLocalization(got); !reflect.DeepEqual(wv, gv) {
					t.Fatalf("%s: Localization diverges under the default map:\ncore  %+v\nports %+v",
						f.Describe(fx.sys), wv, gv)
				}
			}
		})
	}
}

// TestNoWrongConvictionUnderProjection pins the safety acceptance criterion:
// under per-machine observation, whenever the pipeline convicts a single
// fault, the convicted mutant must be locally indistinguishable from the
// implementation actually running — no input sequence produces a visible
// (non-silent) observation difference between them. Projection ambiguity may
// enlarge the surviving set or degrade the verdict, but never convicts a
// locally distinguishable impostor.
func TestNoWrongConvictionUnderProjection(t *testing.T) {
	for _, fx := range fixtures(t) {
		if fx.name != "figure1" && fx.name != "relay" {
			continue
		}
		t.Run(fx.name, func(t *testing.T) {
			pm := perMachineMap(t, fx.sys)
			convictions, degraded := 0, 0
			for _, f := range fault.Enumerate(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				loc, rep, err := ports.Diagnose(fx.sys, fx.suite, &core.SystemOracle{Sys: mut}, pm)
				if err != nil {
					t.Fatalf("%s: %v", f.Describe(fx.sys), err)
				}
				if rep.Single {
					t.Fatal("per-machine map reported as single")
				}
				switch loc.Verdict {
				case core.VerdictLocalized:
					convictions++
					convicted, err := loc.Fault.Apply(fx.sys)
					if err != nil {
						t.Fatalf("%s: convicted fault does not apply: %v", f.Describe(fx.sys), err)
					}
					seq, distinguishable, _ := refsearch.Distinguish(
						refsearch.Variant{Sys: convicted, Cfg: convicted.InitialConfig()},
						refsearch.Variant{Sys: mut, Cfg: mut.InitialConfig()},
						fx.sys.AllInputs(), nil, true)
					if distinguishable {
						t.Errorf("%s: convicted %s although %v visibly distinguishes them",
							f.Describe(fx.sys), loc.Fault.Describe(fx.sys), seq)
					}
				case core.VerdictAmbiguous, core.VerdictInconclusive:
					degraded++
				}
			}
			t.Logf("%d convictions (all locally sound), %d degraded to ambiguity", convictions, degraded)
			if convictions == 0 {
				t.Error("no mutant was convicted at all under per-machine observation")
			}
		})
	}
}

// TestProjectionEnlargesCandidates pins the E18 phenomenon the experiment
// reports: there is at least one mutant whose surviving candidate set under
// per-machine observation strictly contains the global one.
func TestProjectionEnlargesCandidates(t *testing.T) {
	fx := fixtures(t)[0] // figure1
	pm := perMachineMap(t, fx.sys)
	enlarged := 0
	for _, f := range fault.Enumerate(fx.sys) {
		mut, err := f.Apply(fx.sys)
		if err != nil {
			t.Fatal(err)
		}
		observed, err := mut.RunSuite(fx.suite)
		if err != nil {
			continue
		}
		global, err := core.Analyze(fx.sys, fx.suite, observed)
		if err != nil {
			continue
		}
		local, _, err := ports.AnalyzeObserved(fx.sys, fx.suite, observed, pm)
		if err != nil {
			t.Fatalf("%s: %v", f.Describe(fx.sys), err)
		}
		if len(local.Diagnoses) > len(global.Diagnoses) {
			enlarged++
		}
		if len(local.Diagnoses) > 0 && len(global.Diagnoses) > 0 {
			// The local hypothesis space must cover the global one: anything
			// explaining the exact sequences also explains their projections.
			seen := map[string]bool{}
			for _, d := range local.Diagnoses {
				seen[d.Describe(fx.sys)] = true
			}
			for _, d := range global.Diagnoses {
				if !seen[d.Describe(fx.sys)] {
					t.Errorf("%s: global diagnosis %s missing under projection",
						f.Describe(fx.sys), d.Describe(fx.sys))
				}
			}
		}
	}
	if enlarged == 0 {
		t.Error("no mutant's candidate set was enlarged by per-machine observation")
	}
	t.Logf("%d mutants with strictly larger candidate sets under projection", enlarged)
}

// TestLocallyAmbiguousEventNamesCandidate drives Step 6 into the
// locally-ambiguous outcome on the E18 rand-1 system under per-machine
// observation: readdressing M3.m3t1's external output to M1 or to M2 leaves
// every observer silent either way (ε at M1 versus ε at M2), so only a
// global observer can tell the two hypotheses apart. The ports.match event
// that reports the candidate must name it machine-qualified, as core's
// target attributes do — transition names are unique only per machine.
func TestLocallyAmbiguousEventNamesCandidate(t *testing.T) {
	fx := fixtures(t)[3]
	if fx.name != "rand-1" {
		t.Fatalf("fixture %s, want rand-1", fx.name)
	}
	pm := perMachineMap(t, fx.sys)
	ref := cfsm.Ref{Machine: 2, Name: "m3t1"}
	toM1 := fault.Fault{Ref: ref, Kind: fault.KindAddress, Dest: 0}
	toM2 := fault.Fault{Ref: ref, Kind: fault.KindAddress, Dest: 1}
	iut, err := toM1.Apply(fx.sys)
	if err != nil {
		t.Fatal(err)
	}
	observed, err := iut.RunSuite(fx.suite)
	if err != nil {
		t.Fatal(err)
	}
	a, _, err := ports.AnalyzeObserved(fx.sys, fx.suite, observed, pm)
	if err != nil {
		t.Fatal(err)
	}
	if !a.HasSymptoms() {
		t.Fatal("the suite does not reveal the addressing fault")
	}
	// Step 6 separates both hypotheses from the specification but not from
	// each other.
	a.Diagnoses = []fault.Fault{toM1, toM2}
	tr := trace.New()
	loc, _, err := ports.Localize(a, &core.SystemOracle{Sys: iut}, pm, ports.WithTrace(tr))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loc.LocallyAmbiguous, []cfsm.Ref{ref}) {
		t.Fatalf("LocallyAmbiguous = %v, want [%s]", loc.LocallyAmbiguous, fx.sys.RefString(ref))
	}
	var named []string
	for _, e := range tr.Events() {
		if e.Kind == trace.KindPortsMatch && e.Attrs["outcome"] == "locally_ambiguous" {
			named = append(named, e.Attrs["candidate"])
		}
	}
	if want := []string{"M3.m3t1"}; !reflect.DeepEqual(named, want) {
		t.Errorf("locally_ambiguous events name %q, want %q", named, want)
	}
}
