package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// referenceDecodeModel is the model decode path the one-pass reader
// replaced: encoding/json into cfsm.SystemJSON with unknown fields rejected,
// then cfsm.FromJSON.
func referenceDecodeModel(doc []byte) (*cfsm.System, error) {
	var sj cfsm.SystemJSON
	if err := strictUnmarshal(doc, &sj); err != nil {
		return nil, cfsm.DocumentError{Err: err}
	}
	return cfsm.FromJSON(sj)
}

// diagnoseOutcome is what /v1/diagnose makes of a body up to the diagnosis
// itself: the error response, or the decoded request, the resolved systems
// and the suite the diagnosis would run.
type diagnoseOutcome struct {
	status            int
	code, message     string
	req               diagnoseRequest
	specHash, iutHash string
	suite             []cfsm.TestCase
}

// outcomeOf runs a body through the handler's decode, suite-size check and
// resolution; reference selects the path the reader replaced (s.decode,
// then referenceDecodeModel and testgen.SuiteOrTour).
func outcomeOf(t testing.TB, s *api, body []byte, reference bool) diagnoseOutcome {
	rr := httptest.NewRecorder()
	hr := httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body))
	var out diagnoseOutcome
	ok := false
	if reference {
		ok = s.decode(rr, hr, &out.req)
	} else {
		out.req, ok = s.decodeDiagnose(rr, hr)
	}
	if ok && s.checkSuiteSize(rr, "suite", len(out.req.Suite), func(i int) int { return len(out.req.Suite[i].Inputs) }) {
		var spec, iut *cfsm.System
		var err error
		if reference {
			spec, iut, out.suite, err = referencePrepare(s, out.req)
		} else {
			var entry *modelEntry
			var model iutModel
			entry, model, out.suite, _, err = s.prepareDiagnose(out.req)
			if err == nil {
				spec, iut = entry.sys, model.system(t, entry.sys)
			}
		}
		if err != nil {
			writePipelineErr(rr, err)
		} else {
			out.specHash, out.iutHash = compiled.ModelHash(spec), compiled.ModelHash(iut)
		}
	}
	out.status = rr.Code
	if rr.Code != http.StatusOK {
		var env errorEnvelope
		if err := json.Unmarshal(rr.Body.Bytes(), &env); err != nil {
			t.Fatalf("status %d without the error envelope: %s", rr.Code, rr.Body)
		}
		out.code, out.message = env.Error.Code, env.Error.Message
		out.req = diagnoseRequest{}
	}
	return out
}

// referencePrepare is prepareDiagnose on the replaced decode path.
func referencePrepare(s *api, req diagnoseRequest) (spec, iut *cfsm.System, suite []cfsm.TestCase, err error) {
	resolve := func(doc json.RawMessage, ref string) (*cfsm.System, error) {
		if ref != "" {
			e, err := s.resolveModel(nil, ref)
			if err != nil {
				return nil, err
			}
			return e.sys, nil
		}
		if len(doc) == 0 {
			doc = json.RawMessage("null")
		}
		return referenceDecodeModel(doc)
	}
	if spec, err = resolve(req.Spec, req.SpecRef); err != nil {
		return nil, nil, nil, fmt.Errorf("spec: %w", err)
	}
	if iut, err = resolve(req.IUT, req.IUTRef); err != nil {
		return nil, nil, nil, fmt.Errorf("iut: %w", err)
	}
	if suite, err = cfsm.DecodeSuite(req.Suite); err != nil {
		return nil, nil, nil, err
	}
	if suite, _, err = testgen.SuiteOrTour(spec, suite); err != nil {
		return nil, nil, nil, err
	}
	return spec, iut, suite, nil
}

// checkDiagnoseRequest holds the one-pass reader to the replaced path on one
// body: the same status, error code and message, and on success the same
// decoded request, resolved systems and suite. The diagnose job's decode is
// held to strictUnmarshal on the same bytes.
func checkDiagnoseRequest(t *testing.T, s *api, body []byte) {
	t.Helper()
	got, want := outcomeOf(t, s, body, false), outcomeOf(t, s, body, true)
	if got.status != want.status || got.code != want.code || got.message != want.message {
		t.Fatalf("reader: %d %s %q\nreference: %d %s %q\nbody: %q",
			got.status, got.code, got.message, want.status, want.code, want.message, body)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reader decoded %+v\nreference %+v\nbody: %q", got, want, body)
	}
	var wantJob diagnoseRequest
	wantErr := strictUnmarshal(body, &wantJob)
	gotJob, ok := readDiagnoseRequest(body)
	if ok != (wantErr == nil) || ok && !reflect.DeepEqual(gotJob, wantJob) {
		t.Fatalf("job payload: reader %v %+v, strictUnmarshal %v %+v", ok, gotJob, wantErr, wantJob)
	}
}

// diagnoseBodies are request bodies on which encoding/json's acceptance is
// easiest to get wrong; the table records the status the replaced path
// answers before the diagnosis runs, so a case that stops exercising its
// quirk shows.
func diagnoseBodies(t testing.TB) []struct {
	name   string
	body   string
	status int
} {
	spec := string(bytes.TrimSpace(readFixture(t, "figure1.json")))
	iut := string(bytes.TrimSpace(readFixture(t, "figure1-faulty.json")))
	both := `"spec":` + spec + `,"iut":` + iut
	suite := `"suite":[{"name":"a","inputs":["R","a^1"]},{"inputs":["R","x^2"]}]`
	return []struct {
		name   string
		body   string
		status int
	}{
		{"plain", `{` + both + `,` + suite + `}`, http.StatusOK},
		{"suite-less", `{` + both + `}`, http.StatusOK},
		{"upper-case keys", `{"SPEC":` + spec + `,"Iut":` + iut + `,"SUITE":[{"NAME":"a","Inputs":["R"]}],"MaxAdditionalTests":2}`, http.StatusOK},
		{"long s folds to s", `{"ſpec":` + spec + `,"iut":` + iut + `,"ſuite":[{"inputs":["R"]}],"portſ":{"M1":"a","M2":"a","M3":"b"}}`, http.StatusOK},
		{"Kelvin sign is unknown", `{` + both + `,"K":1}`, http.StatusBadRequest},
		{"escaped keys", `{"\u0073pec":` + spec + `,"i\u0075t":` + iut + `,"max\u0041dditionalTests":1}`, http.StatusOK},
		{"last duplicate wins", `{"spec":null,` + both + `,"maxAdditionalTests":5,"maxAdditionalTests":1}`, http.StatusOK},
		{"duplicate suite merges into earlier cases", `{` + both + `,` + suite + `,"suite":[{"inputs":["R"]}]}`, http.StatusOK},
		{"re-extended inputs expose their stale slot", `{` + both + `,"suite":[{"inputs":["R","a^1"]}],"suite":[{"inputs":["R"]}],"suite":[{"inputs":["R",null]}]}`, http.StatusOK},
		{"duplicate ports merge", `{` + both + `,"ports":{"M1":"a","M2":"a"},"ports":{"M3":"b"}}`, http.StatusOK},
		{"null ports value", `{` + both + `,"ports":{"M1":"a","M2":"a","M3":null}}`, http.StatusOK},
		{"null ports, suite and ref", `{` + both + `,"ports":null,"suite":null,"specRef":null,"maxAdditionalTests":null}`, http.StatusOK},
		{"null iut", `{"spec":` + spec + `,"iut":null}`, http.StatusUnprocessableEntity},
		{"null body", `null`, http.StatusUnprocessableEntity},
		{"invalid UTF-8 becomes U+FFFD", "{" + both + ",\"suite\":[{\"name\":\"\xff\",\"inputs\":[\"R\"]}]}", http.StatusOK},
		{"lone surrogate in a port name", `{` + both + `,"ports":{"M1":"\ud800","M2":"a","M3":"a"}}`, http.StatusOK},
		{"negative zero", `{` + both + `,"maxAdditionalTests":-0}`, http.StatusOK},
		{"fraction for the int", `{` + both + `,"maxAdditionalTests":1.0}`, http.StatusBadRequest},
		{"exponent for the int", `{` + both + `,"maxAdditionalTests":1e2}`, http.StatusBadRequest},
		{"int overflow", `{` + both + `,"maxAdditionalTests":9223372036854775808}`, http.StatusBadRequest},
		{"largest int", `{` + both + `,"maxAdditionalTests":9223372036854775807}`, http.StatusOK},
		{"string for the int", `{` + both + `,"maxAdditionalTests":"3"}`, http.StatusBadRequest},
		{"bytes after the body", `{` + both + `} trailing garbage {`, http.StatusOK},
		{"unknown field", `{` + both + `,"bogus":true}`, http.StatusBadRequest},
		{"unknown field in the iut", `{"spec":` + spec + `,"iut":{"bogus":1}}`, http.StatusBadRequest},
		{"unknown suite field", `{` + both + `,"suite":[{"inputs":["R"],"x":1}]}`, http.StatusBadRequest},
		{"malformed spec", `{"spec":{"machines":[},"iut":` + iut + `}`, http.StatusBadRequest},
		{"unknown ref", `{"specRef":"feed","iut":` + iut + `}`, http.StatusUnprocessableEntity},
		{"duplicate case names", `{` + both + `,"suite":[{"name":"a","inputs":["R"]},{"name":"a","inputs":["R"]}]}`, http.StatusUnprocessableEntity},
		{"truncated", `{` + both, http.StatusBadRequest},
		{"empty", ``, http.StatusBadRequest},
	}
}

func TestDiagnoseRequestMatchesEncodingJSON(t *testing.T) {
	s := newTestAPI(Config{})
	for _, c := range diagnoseBodies(t) {
		t.Run(c.name, func(t *testing.T) {
			checkDiagnoseRequest(t, s, []byte(c.body))
			if got := outcomeOf(t, s, []byte(c.body), true).status; got != c.status {
				t.Errorf("the replaced path answers %d, the case expects %d", got, c.status)
			}
		})
	}
}

// TestDiagnoseRequestBodyCap: under the body cap the reader answers what
// json.Decoder over http.MaxBytesReader answers — a body whose JSON value
// ends within the cap decodes whatever follows it, and one cut by the cap is
// 413.
func TestDiagnoseRequestBodyCap(t *testing.T) {
	s := newTestAPI(Config{MaxBodyBytes: 64})
	for _, c := range []struct {
		body   string
		status int
	}{
		{`{"spec":null}` + strings.Repeat(" ", 100), http.StatusUnprocessableEntity},
		{`{"spec":null,"bogus":1}` + strings.Repeat("x", 100), http.StatusBadRequest},
		{`{"spec":"` + strings.Repeat("a", 100) + `"}`, http.StatusRequestEntityTooLarge},
		{`{"spec":{"machines":[}` + strings.Repeat(" ", 100), http.StatusBadRequest},
	} {
		t.Run(fmt.Sprint(c.status), func(t *testing.T) {
			checkDiagnoseRequest(t, s, []byte(c.body))
			if got := outcomeOf(t, s, []byte(c.body), false).status; got != c.status {
				t.Errorf("status %d, want %d", got, c.status)
			}
		})
	}
}

// FuzzDiagnoseRequest holds the one-pass body reader to s.decode and the
// replaced model decode on arbitrary /v1/diagnose bodies: status, error
// code, message, decoded request and resolved systems.
func FuzzDiagnoseRequest(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "figure1*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append(append([]byte(`{"spec":`), data...), '}'))
		f.Add(append(append([]byte(`{"iut":`), data...), '}'))
	}
	f.Add([]byte(`{"spec":null}`))
	f.Add([]byte(`{"spec":{"machines":"M1"}}`))
	for _, c := range diagnoseBodies(f) {
		f.Add([]byte(c.body))
	}
	s := newTestAPI(Config{MaxBodyBytes: 1 << 16})
	f.Fuzz(func(t *testing.T, body []byte) { checkDiagnoseRequest(t, s, body) })
}

// BenchmarkDiagnoseInline posts /v1/diagnose requests for randgen 4×4
// specifications with their tours and a distinct inline mutant IUT per
// request, so every IUT misses the registry as in the diagnose_large
// workload. specs=1 diagnoses seed 2 alone; specs=4 rotates seeds 2, 3, 4
// and 7 request by request, so a pooled engine is rebound to another
// program for nearly every request, as under perfbench's sixteen specs.
// Both send the IUT compact like the specification, so it runs as a patch
// over the specification's program. iut=respelled is specs=1 with the IUT
// indented: the patch declines it, and it is read in full.
func BenchmarkDiagnoseInline(b *testing.B) {
	for _, seeds := range [][]int64{{2}, {2, 3, 4, 7}} {
		b.Run(fmt.Sprintf("specs=%d", len(seeds)), func(b *testing.B) { benchDiagnoseInline(b, seeds, false) })
	}
	b.Run("iut=respelled", func(b *testing.B) { benchDiagnoseInline(b, []int64{2}, true) })
}

func benchDiagnoseInline(b *testing.B, seeds []int64, indentIUT bool) {
	compact := func(sys *cfsm.System) []byte {
		doc, err := sys.MarshalJSON()
		if err != nil {
			b.Fatal(err)
		}
		var out bytes.Buffer
		if err := json.Compact(&out, doc); err != nil {
			b.Fatal(err)
		}
		return out.Bytes()
	}
	bodies := make([][][]byte, len(seeds))
	for k, seed := range seeds {
		spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed})
		tour, _ := testgen.Tour(spec, 0)
		suite, err := json.Marshal(cfsm.EncodeSuite(tour))
		if err != nil {
			b.Fatal(err)
		}
		prefix := append(append(append([]byte(`{"spec":`), compact(spec)...), `,"suite":`...), suite...)
		for _, f := range fault.Enumerate(spec) {
			iut, err := f.Apply(spec)
			if err != nil {
				b.Fatal(err)
			}
			iutDoc := compact(iut)
			if indentIUT {
				if iutDoc, err = iut.MarshalJSON(); err != nil {
					b.Fatal(err)
				}
			}
			body := append(append(append(bytes.Clone(prefix), `,"iut":`...), iutDoc...), '}')
			bodies[k] = append(bodies[k], body)
		}
	}
	// Every specification holds two keys (its document and its canonical
	// hash) and stays hot; the four keys per specification left over evict
	// every IUT long before its body comes round again.
	s := newTestAPI(Config{ModelCacheEntries: 4*len(seeds) + 4})
	h := s.post(s.handleDiagnose)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		specBodies := bodies[i%len(seeds)]
		body := specBodies[i/len(seeds)%len(specBodies)]
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body)))
		if rr.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
	}
}

// TestSuitelessRequestsShareOneTour sends suite-less diagnoses of distinct
// mutants from 8 goroutines (run it with -race): every request runs on the
// specification entry's one cached tour, none modifies it, and each answer
// equals the library's diagnosis over a freshly generated tour.
func TestSuitelessRequestsShareOneTour(t *testing.T) {
	s := newTestAPI(Config{})
	h := s.post(s.handleDiagnose)
	spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 2})
	tour, _ := testgen.Tour(spec, 0)
	faults := fault.Enumerate(spec)
	specDoc := systemDoc(t, spec)
	const workers, perWorker = 8, 3
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < workers*perWorker; k += workers {
				iut, err := faults[k].Apply(spec)
				if err != nil {
					t.Error(err)
					return
				}
				body, err := json.Marshal(diagnoseRequest{Spec: specDoc, IUT: systemDoc(t, iut)})
				if err != nil {
					t.Error(err)
					return
				}
				rr := httptest.NewRecorder()
				h(rr, httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body)))
				var got diagnoseResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &got); rr.Code != http.StatusOK || err != nil {
					t.Errorf("status %d: %s", rr.Code, rr.Body)
					return
				}
				oracle := &core.SystemOracle{Sys: iut}
				loc, err := core.Diagnose(spec, tour, oracle)
				if err != nil {
					t.Error(err)
					return
				}
				if want := encodeLocalization(spec, tour, oracle.Tests, oracle.Inputs, loc); !reflect.DeepEqual(got, want) {
					t.Errorf("%s: server %+v, library %+v", faults[k].Describe(spec), got, want)
				}
			}
		}(w)
	}
	wg.Wait()
	e, ok := s.models.get(compiled.ModelHash(spec))
	if !ok {
		t.Fatal("the specification is not registered under its hash")
	}
	if cached, _ := e.tour(); !reflect.DeepEqual(cached, tour) {
		t.Fatal("the cached tour differs from a fresh one: a request modified it")
	}
}

// TestWideSpecTourCached: the transition tour of the 2^32-configuration
// specification takes seconds to build; the first suite-less request pays
// for it, and later ones, on /v1/diagnose and /v1/suite alike, reuse the
// entry's tour.
func TestWideSpecTourCached(t *testing.T) {
	s := newTestAPI(Config{})
	spec := randgen.MustGenerate(randgen.Config{N: 8, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	specDoc := systemDoc(t, spec)
	diagnose := s.post(s.handleDiagnose)
	timed := func(h http.HandlerFunc, path string, body any) time.Duration {
		data, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rr := httptest.NewRecorder()
		start := time.Now()
		h(rr, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(data)))
		elapsed := time.Since(start)
		if rr.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", path, rr.Code, rr.Body)
		}
		return elapsed
	}
	req := diagnoseRequest{Spec: specDoc, IUT: specDoc}
	first := timed(diagnose, "/v1/diagnose", req)
	second := timed(diagnose, "/v1/diagnose", req)
	tourReq := timed(s.post(s.handleSuite), "/v1/suite", suiteRequest{Spec: specDoc})
	t.Logf("first suite-less diagnosis %v, second %v, /v1/suite tour %v", first, second, tourReq)
	if second > first/4 || tourReq > first/4 {
		t.Fatalf("later requests took %v and %v after a first of %v: the tour is not cached", second, tourReq, first)
	}
}
