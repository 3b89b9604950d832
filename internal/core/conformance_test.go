package core_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/server"
	"cfsmdiag/internal/testgen"
)

// reference names the interpreted reference engine.
var reference = core.WithEngine(nil)

type conformanceSystem struct {
	name  string
	spec  *cfsm.System
	suite []cfsm.TestCase
}

// conformanceSystems returns Figure 1 with its Table 1 suite, then the given
// randgen seeds with transition-tour suites (the E18 systems).
func conformanceSystems(t *testing.T, seeds ...int64) []conformanceSystem {
	t.Helper()
	out := []conformanceSystem{{"figure1", paper.MustFigure1(), paper.TestSuite()}}
	for _, seed := range seeds {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("randgen seed %d: %v", seed, err)
		}
		suite, _ := testgen.Tour(sys, 0)
		out = append(out, conformanceSystem{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	return out
}

// outcome is what every diagnosis surface reports about one mutant, in the
// wire rendering of /v1/diagnose.
type outcome struct {
	Verdict     string   `json:"verdict"`
	Fault       string   `json:"fault"`
	Remaining   []string `json:"remaining"`
	TotalTests  int      `json:"totalTests"`
	TotalInputs int      `json:"totalInputs"`
}

func outcomeOf(spec *cfsm.System, loc *core.Localization, oracle *core.SystemOracle) outcome {
	o := outcome{Verdict: loc.Verdict.String(), TotalTests: oracle.Tests, TotalInputs: oracle.Inputs}
	if loc.Fault != nil {
		o.Fault = loc.Fault.Describe(spec)
	}
	for _, f := range loc.Remaining {
		o.Remaining = append(o.Remaining, f.Describe(spec))
	}
	return o
}

// postDiagnose runs one in-process POST /v1/diagnose.
func postDiagnose(t *testing.T, h http.Handler, path string, spec, iut *cfsm.System, suite []cfsm.TestCase) outcome {
	t.Helper()
	specDoc, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	iutDoc, err := iut.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	type caseDoc struct {
		Name   string   `json:"name"`
		Inputs []string `json:"inputs"`
	}
	var cases []caseDoc
	for _, tc := range suite {
		c := caseDoc{Name: tc.Name}
		for _, in := range tc.Inputs {
			c.Inputs = append(c.Inputs, in.String())
		}
		cases = append(cases, c)
	}
	body, err := json.Marshal(map[string]any{
		"spec":  json.RawMessage(specDoc),
		"iut":   json.RawMessage(iutDoc),
		"suite": cases,
	})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("POST %s: %d %s", path, rec.Code, rec.Body.Bytes())
	}
	var o outcome
	if err := json.Unmarshal(rec.Body.Bytes(), &o); err != nil {
		t.Fatalf("decode %s response: %v", path, err)
	}
	return o
}

// TestSurfacesConform diagnoses every Figure 1 mutant and every mutant of the
// randgen seed-1 system through each diagnosis surface — the library entry
// point (compiled engine), the interpreted reference engine, in-process
// POST /v1/diagnose with and without ?trace=1, and a single-observer ports
// map — and requires the same verdict, fault, remaining hypotheses and
// total oracle tests and inputs from all of them.
func TestSurfacesConform(t *testing.T) {
	h := server.New(server.Config{EnableTracing: true})
	for _, sys := range conformanceSystems(t, 1) {
		t.Run(sys.name, func(t *testing.T) {
			hub := ports.Default(sys.spec)
			for _, f := range fault.Enumerate(sys.spec) {
				iut, err := f.Apply(sys.spec)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(sys.spec), err)
				}
				surfaces := map[string]func() outcome{
					"core.Diagnose": func() outcome {
						oracle := &core.SystemOracle{Sys: iut}
						loc, err := core.Diagnose(sys.spec, sys.suite, oracle)
						if err != nil {
							t.Fatal(err)
						}
						return outcomeOf(sys.spec, loc, oracle)
					},
					"ports.Diagnose single-port": func() outcome {
						oracle := &core.SystemOracle{Sys: iut}
						loc, _, err := ports.Diagnose(sys.spec, sys.suite, oracle, hub)
						if err != nil {
							t.Fatal(err)
						}
						return outcomeOf(sys.spec, loc, oracle)
					},
					"POST /v1/diagnose": func() outcome {
						return postDiagnose(t, h, "/v1/diagnose", sys.spec, iut, sys.suite)
					},
					"POST /v1/diagnose?trace=1": func() outcome {
						return postDiagnose(t, h, "/v1/diagnose?trace=1", sys.spec, iut, sys.suite)
					},
				}
				oracle := &core.SystemOracle{Sys: iut}
				loc, err := core.Diagnose(sys.spec, sys.suite, oracle, reference)
				if err != nil {
					t.Fatal(err)
				}
				want := outcomeOf(sys.spec, loc, oracle)
				for name, run := range surfaces {
					if got := run(); !reflect.DeepEqual(got, want) {
						t.Errorf("%s via %s:\n  got       %+v\n  reference %+v",
							f.Describe(sys.spec), name, got, want)
					}
				}
			}
		})
	}
}

// TestMultiPortMatchesReference pins matcher mode on the compiled engine —
// projected verification and the projected distinguishing search — to the
// interpreted reference: every mutant of the E18 systems, diagnosed under a
// per-machine port map, must localize identically, down to the additional
// tests and the locally ambiguous candidates.
func TestMultiPortMatchesReference(t *testing.T) {
	type view struct {
		Outcome          outcome
		Cleared          []cfsm.Ref
		LocallyAmbiguous []cfsm.Ref
		Additional       []core.AdditionalTest
		Diagnoses        []fault.Fault
		Report           *ports.Report
	}
	for _, sys := range conformanceSystems(t, 1, 42) {
		t.Run(sys.name, func(t *testing.T) {
			portOf := make([]string, sys.spec.N())
			for i := range portOf {
				portOf[i] = fmt.Sprintf("site-%02d", i)
			}
			pm, err := ports.New(sys.spec, portOf)
			if err != nil {
				t.Fatal(err)
			}
			diagnose := func(iut *cfsm.System, opts ...core.Option) view {
				oracle := &core.SystemOracle{Sys: iut}
				loc, rep, err := ports.Diagnose(sys.spec, sys.suite, oracle, pm, ports.WithCoreOptions(opts...))
				if err != nil {
					t.Fatal(err)
				}
				return view{
					Outcome:          outcomeOf(sys.spec, loc, oracle),
					Cleared:          loc.Cleared,
					LocallyAmbiguous: loc.LocallyAmbiguous,
					Additional:       loc.AdditionalTests,
					Diagnoses:        loc.Analysis.Diagnoses,
					Report:           rep,
				}
			}
			for _, f := range fault.Enumerate(sys.spec) {
				iut, err := f.Apply(sys.spec)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(sys.spec), err)
				}
				if got, want := diagnose(iut), diagnose(iut, reference); !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n  compiled  %+v\n  reference %+v", f.Describe(sys.spec), got, want)
				}
			}
		})
	}
}
