package core_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync/atomic"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/server"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// reference names the interpreted reference engine.
var reference = core.Reference

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
	body, err := json.Marshal(map[string]any{
		"spec":  json.RawMessage(marshalSystem(t, spec)),
		"iut":   json.RawMessage(marshalSystem(t, iut)),
		"suite": cfsm.EncodeSuite(suite),
	})
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	call(t, h, http.MethodPost, path, body, http.StatusOK, &o)
	return o
}

// postDiagnoseRespelled runs one in-process POST /v1/diagnose with the
// implementation under test indented, as MarshalJSON writes it, and the
// specification indented too, a spelling byte-different from
// postDiagnose's, or, with compactSpec, compact. The body is built raw,
// since json.Marshal compacts a json.RawMessage.
func postDiagnoseRespelled(t *testing.T, h http.Handler, spec, iut *cfsm.System, suite []cfsm.TestCase, compactSpec bool) outcome {
	t.Helper()
	specDoc := marshalSystem(t, spec)
	if compactSpec {
		var b bytes.Buffer
		if err := json.Compact(&b, specDoc); err != nil {
			t.Fatal(err)
		}
		specDoc = b.Bytes()
	}
	suiteDoc, err := json.Marshal(cfsm.EncodeSuite(suite))
	if err != nil {
		t.Fatal(err)
	}
	body := fmt.Appendf(nil, `{"spec":%s,"iut":%s,"suite":%s}`, specDoc, marshalSystem(t, iut), suiteDoc)
	var o outcome
	call(t, h, http.MethodPost, "/v1/diagnose", body, http.StatusOK, &o)
	return o
}

// postDiagnoseByRef uploads the specification and the implementation under
// test with POST /v1/models and diagnoses them by reference.
func postDiagnoseByRef(t *testing.T, h http.Handler, spec, iut *cfsm.System, suite []cfsm.TestCase) outcome {
	t.Helper()
	upload := func(sys *cfsm.System) string {
		var model struct {
			Hash string `json:"hash"`
		}
		call(t, h, http.MethodPost, "/v1/models", marshalSystem(t, sys), http.StatusOK, &model)
		return model.Hash
	}
	body, err := json.Marshal(map[string]any{
		"specRef": upload(spec),
		"iutRef":  upload(iut),
		"suite":   cfsm.EncodeSuite(suite),
	})
	if err != nil {
		t.Fatal(err)
	}
	var o outcome
	call(t, h, http.MethodPost, "/v1/diagnose", body, http.StatusOK, &o)
	return o
}

func marshalSystem(t *testing.T, sys *cfsm.System) []byte {
	t.Helper()
	doc, err := sys.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// call serves one in-process request and decodes the response body into v.
func call(t *testing.T, h http.Handler, method, path string, body []byte, wantStatus int, v any) {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(method, path, bytes.NewReader(body)))
	if rec.Code != wantStatus {
		t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body.Bytes())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("decode %s response: %v", path, err)
	}
}

// submitDiagnoseJob runs one diagnosis through the in-process /v1/jobs
// queue: submit, wait for the queue to drain, fetch the result.
func submitDiagnoseJob(t *testing.T, svc *server.Service, spec, iut *cfsm.System, suite []cfsm.TestCase) outcome {
	t.Helper()
	body, err := json.Marshal(map[string]any{
		"kind": "diagnose",
		"request": map[string]any{
			"spec":  json.RawMessage(marshalSystem(t, spec)),
			"iut":   json.RawMessage(marshalSystem(t, iut)),
			"suite": cfsm.EncodeSuite(suite),
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		ID string `json:"id"`
	}
	call(t, svc.Handler(), http.MethodPost, "/v1/jobs", body, http.StatusAccepted, &job)
	if err := svc.Jobs().WaitIdle(context.Background()); err != nil {
		t.Fatal(err)
	}
	var res struct {
		State  string  `json:"state"`
		Error  string  `json:"error"`
		Result outcome `json:"result"`
	}
	call(t, svc.Handler(), http.MethodGet, "/v1/jobs/"+job.ID+"/result", nil, http.StatusOK, &res)
	if res.State != "succeeded" {
		t.Fatalf("job %s: %s %s", job.ID, res.State, res.Error)
	}
	return res.Result
}

// replayDiagnosis records a traced diagnosis and re-runs it offline from
// the trace; the totals count the recorded suite plus the canned answers
// the replay consumed.
func replayDiagnosis(t *testing.T, spec, iut *cfsm.System, suite []cfsm.TestCase) outcome {
	t.Helper()
	tr := trace.New()
	if _, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: iut}, core.WithTrace(tr)); err != nil {
		t.Fatal(err)
	}
	run, err := replay.Load(tr.Events())
	if err != nil {
		t.Fatal(err)
	}
	loc, canned, err := run.Localize()
	if err != nil {
		t.Fatal(err)
	}
	totals := &core.SystemOracle{Tests: len(run.Suite) + canned.Queries}
	for _, tc := range run.Suite {
		totals.Inputs += len(tc.Inputs)
	}
	for _, at := range loc.AdditionalTests {
		totals.Inputs += len(at.Test.Inputs)
	}
	return outcomeOf(run.Spec, loc, totals)
}

// TestSurfacesConform diagnoses every single-transition and every
// addressing mutant of Figure 1 and of the randgen seed-1 system through
// each diagnosis surface — the library entry point (compiled engine), the
// interpreted reference engine, in-process POST /v1/diagnose with and
// without ?trace=1, by reference to models uploaded with POST /v1/models,
// with the specification and with the implementation under test in a
// second spelling, a diagnose job through the /v1/jobs queue, a
// single-observer ports map, and an offline replay of a traced run — and
// requires the same verdict, fault, remaining hypotheses and total oracle
// tests and inputs from all of them. Through server.OnIUTResolved it also
// requires that an IUT sent in its specification's spelling runs as a patch
// over the specification's program, and a respelled IUT is read in full.
func TestSurfacesConform(t *testing.T) {
	h := server.New(server.Config{EnableTracing: true})
	svc, err := server.NewService(server.Config{EnableJobs: true, JobsWorkers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close(context.Background())
	var patched, read atomic.Int64
	server.OnIUTResolved = func(p bool) {
		if p {
			patched.Add(1)
		} else {
			read.Add(1)
		}
	}
	defer func() { server.OnIUTResolved = nil }()
	// resolvedBy runs a surface that resolves one IUT, and fails unless it
	// was patched (wantPatch) or read in full.
	resolvedBy := func(t *testing.T, wantPatch bool, run func() outcome) outcome {
		t.Helper()
		p0, r0 := patched.Load(), read.Load()
		o := run()
		want := [2]int64{0, 1}
		if wantPatch {
			want = [2]int64{1, 0}
		}
		if got := [2]int64{patched.Load() - p0, read.Load() - r0}; got != want {
			t.Errorf("%d IUTs patched and %d read in full, want %d and %d", got[0], got[1], want[0], want[1])
		}
		return o
	}
	for _, sys := range conformanceSystems(t, 1) {
		t.Run(sys.name, func(t *testing.T) {
			hub := ports.Default(sys.spec)
			for _, f := range append(fault.Enumerate(sys.spec), fault.EnumerateAddress(sys.spec)...) {
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
						return resolvedBy(t, true, func() outcome {
							return postDiagnose(t, h, "/v1/diagnose", sys.spec, iut, sys.suite)
						})
					},
					"POST /v1/diagnose?trace=1": func() outcome {
						return resolvedBy(t, true, func() outcome {
							return postDiagnose(t, h, "/v1/diagnose?trace=1", sys.spec, iut, sys.suite)
						})
					},
					"POST /v1/diagnose by reference": func() outcome {
						return postDiagnoseByRef(t, h, sys.spec, iut, sys.suite)
					},
					"POST /v1/diagnose respelled spec": func() outcome {
						return resolvedBy(t, true, func() outcome {
							return postDiagnoseRespelled(t, h, sys.spec, iut, sys.suite, false)
						})
					},
					"POST /v1/diagnose respelled IUT": func() outcome {
						return resolvedBy(t, false, func() outcome {
							return postDiagnoseRespelled(t, h, sys.spec, iut, sys.suite, true)
						})
					},
					"/v1/jobs diagnose": func() outcome {
						return submitDiagnoseJob(t, svc, sys.spec, iut, sys.suite)
					},
					"replay": func() outcome {
						return replayDiagnosis(t, sys.spec, iut, sys.suite)
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
// projected verification, the combined and address escalations under the
// matcher, and the projected distinguishing search — to the interpreted
// reference: every single-transition and every addressing mutant of the E18
// systems, diagnosed under a per-machine port map, must localize
// identically, down to the additional tests and the locally ambiguous
// candidates.
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
			for _, f := range append(fault.Enumerate(sys.spec), fault.EnumerateAddress(sys.spec)...) {
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

// TestTraceMatchesReference pins the one sim.* emitter: the interpreted
// reference feeds it the runs its analysis simulates, the compiled engine
// the runs of its compiled suite, and a traced Analyze + Localize must emit
// identical events on both for every Figure 1 and randgen seed-1 mutant —
// and for a suite whose specification run fails part-way (an input at an
// unknown port) or whose observations fall short of its inputs.
func TestTraceMatchesReference(t *testing.T) {
	traced := func(spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, oracle core.Oracle, opts ...core.Option) []trace.Event {
		tr := trace.New()
		opts = append(opts, core.WithTrace(tr))
		if a, err := core.Analyze(spec, suite, observed, opts...); err == nil {
			if _, err := core.Localize(a, oracle, opts...); err != nil {
				t.Fatal(err)
			}
		}
		return tr.Events()
	}
	check := func(t *testing.T, label string, spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, oracle core.Oracle) []trace.Event {
		t.Helper()
		want := traced(spec, suite, observed, oracle, reference)
		if got := traced(spec, suite, observed, oracle); !reflect.DeepEqual(got, want) {
			for i := 0; i < len(got) && i < len(want); i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("%s: event %d differs:\n  compiled  %+v\n  reference %+v", label, i+1, got[i], want[i])
				}
			}
			t.Fatalf("%s: compiled engine emitted %d events, reference %d", label, len(got), len(want))
		}
		return want
	}
	for _, sys := range conformanceSystems(t, 1) {
		t.Run(sys.name, func(t *testing.T) {
			for _, f := range fault.Enumerate(sys.spec) {
				iut, err := f.Apply(sys.spec)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(sys.spec), err)
				}
				observed, err := iut.RunSuite(sys.suite)
				if err != nil {
					t.Fatal(err)
				}
				check(t, f.Describe(sys.spec), sys.spec, sys.suite, observed, &core.SystemOracle{Sys: iut})
			}
		})
	}
	t.Run("failing specification run", func(t *testing.T) {
		spec := paper.MustFigure1()
		suite := paper.TestSuite()
		observed, err := spec.RunSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		first := suite[0].Inputs
		bad := cfsm.TestCase{Name: "bad-port", Inputs: append(append([]cfsm.Input(nil), first...), cfsm.Input{Port: 7, Sym: "a"}, first[1])}
		badObserved := make([]cfsm.Observation, len(bad.Inputs))
		oracle := &core.SystemOracle{Sys: spec}
		events := check(t, "unknown port", spec, append(suite, bad), append(observed, badObserved), oracle)
		if last := events[len(events)-2]; last.Kind != trace.KindSimObserve || last.Attrs["error"] != "cfsm: input a^8 addresses unknown port 7" {
			t.Errorf("failing step reported as %+v", last)
		}
		check(t, "unknown port first", spec, append([]cfsm.TestCase{bad}, suite...), append([][]cfsm.Observation{badObserved}, observed...), oracle)
		short := append([][]cfsm.Observation(nil), observed...)
		short[0] = short[0][:len(short[0])-1]
		check(t, "short observations", spec, suite, short, oracle)
	})
}
