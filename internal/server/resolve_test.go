package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// newTestAPI builds the service internals the handlers run on, so tests can
// inspect the model registry behind a request.
func newTestAPI(cfg Config) *api {
	cfg = cfg.withDefaults()
	return &api{
		cfg:    cfg,
		m:      newHTTPMetrics(cfg.Registry),
		sse:    newSSEMetrics(cfg.Registry),
		models: newModelRegistry(cfg.Registry, cfg.ModelCacheEntries),
	}
}

func readFixture(t testing.TB, name string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestInlineModelErrorContract: an inline system that does not decode (an
// unknown field, a wrong type) is a malformed request, 400 bad_request with
// the "decode request:" prefix, on every endpoint and for both diagnosis
// documents; a null document and a well-formed but invalid model are
// unprocessable, 422.
func TestInlineModelErrorContract(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()
	spec := string(bytes.TrimSpace(readFixture(t, "figure1.json")))

	docs := []struct {
		name   string
		doc    string
		status int
		code   string
	}{
		{"unknown field", `{"bogus":1,` + spec[1:], http.StatusBadRequest, codeBadRequest},
		{"wrong type", `{"machines":"M1"}`, http.StatusBadRequest, codeBadRequest},
		{"null", `null`, http.StatusUnprocessableEntity, codeUnprocessable},
		{"invalid model", `{"machines":[{"name":"A","initial":"s0","states":["s0"]},{"name":"A","initial":"s0","states":["s0"]}]}`,
			http.StatusUnprocessableEntity, codeUnprocessable},
	}
	bodies := map[string]func(doc string) string{
		"/v1/diagnose spec": func(doc string) string { return `{"spec":` + doc + `,"iut":` + spec + `}` },
		"/v1/diagnose iut":  func(doc string) string { return `{"spec":` + spec + `,"iut":` + doc + `}` },
		"/v1/analyze":       func(doc string) string { return `{"spec":` + doc + `,"suite":[],"observations":[]}` },
		"/v1/suite":         func(doc string) string { return `{"spec":` + doc + `}` },
		"/v1/validate":      func(doc string) string { return `{"spec":` + doc + `}` },
	}
	for route, body := range bodies {
		path, _, _ := strings.Cut(route, " ")
		for _, d := range docs {
			t.Run(strings.TrimPrefix(route, "/")+"/"+d.name, func(t *testing.T) {
				resp, out := postRaw(t, srv, path, "application/json", []byte(body(d.doc)))
				if resp.StatusCode != d.status {
					t.Fatalf("status = %d, want %d: %s", resp.StatusCode, d.status, out)
				}
				env := decodeEnvelope(t, out)
				if env.Error.Code != d.code {
					t.Fatalf("code = %s, want %s", env.Error.Code, d.code)
				}
				if d.status == http.StatusBadRequest && !strings.HasPrefix(env.Error.Message, "decode request:") {
					t.Fatalf("message = %q, want the decode request: prefix", env.Error.Message)
				}
			})
		}
	}
	t.Run("one-object rewrites", func(t *testing.T) { checkRewritesFallBack(t, srv, []byte(spec)) })
}

// checkRewritesFallBack posts, as the IUT of the specification document
// spec, rewrites of spec that the patch must decline: each takes the full
// read, and answers exactly the full read's error, or, for an IUT the full
// read accepts, the library's diagnosis of the system it builds.
func checkRewritesFallBack(t *testing.T, srv *httptest.Server, spec []byte) {
	sys, spans, err := cfsm.ReadSystemSpans(spec)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := compiled.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	// rewrite replaces the objects at spans[k] for each k of edits, in
	// order, by what the edit makes of the transition's JSON form.
	type edit struct {
		k  int
		fn func(*cfsm.TransitionJSON) []byte
	}
	rewrite := func(edits ...edit) []byte {
		var out []byte
		at := 0
		for _, e := range edits {
			span := spans[e.k]
			tr, _ := sys.Transition(span.Ref)
			tj := cfsm.TransitionJSON{Name: tr.Name, From: string(tr.From), Input: string(tr.Input), Output: string(tr.Output), To: string(tr.To)}
			if tr.Internal() {
				tj.Dest = sys.Machine(tr.Dest).Name()
			}
			out = append(append(out, spec[at:span.Start]...), e.fn(&tj)...)
			at = span.End
		}
		return append(out, spec[at:]...)
	}
	marshal := func(tj *cfsm.TransitionJSON) []byte {
		b, err := json.Marshal(tj)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	set := func(field func(*cfsm.TransitionJSON)) func(*cfsm.TransitionJSON) []byte {
		return func(tj *cfsm.TransitionJSON) []byte {
			field(tj)
			return marshal(tj)
		}
	}
	// An address rewire the model rules reject, found by RewireAddress.
	rewireBreaking := func(rule string) edit {
		for k, span := range spans {
			for d := cfsm.DestEnv; d < sys.N(); d++ {
				if _, err := sys.RewireAddress(span.Ref, d); err != nil && strings.Contains(err.Error(), rule) {
					dest := ""
					if d != cfsm.DestEnv {
						dest = sys.Machine(d).Name()
					}
					return edit{k, set(func(tj *cfsm.TransitionJSON) { tj.Dest = dest })}
				}
			}
		}
		t.Fatalf("no address rewire breaks %q", rule)
		return edit{}
	}
	t1, t3 := 0, 1 // M1's t1 (s0 -a/c'-> s1) and t3 (s0 -b/d'-> s0)
	cases := []struct {
		name   string
		edits  []edit
		status int
	}{
		{"undeclared to state", []edit{{t1, set(func(tj *cfsm.TransitionJSON) { tj.To = "s9" })}}, http.StatusUnprocessableEntity},
		{"renamed to a sibling's name", []edit{{t1, set(func(tj *cfsm.TransitionJSON) { tj.Name = "t3" })}}, http.StatusUnprocessableEntity},
		{"input collides with a sibling's key", []edit{{t1, set(func(tj *cfsm.TransitionJSON) { tj.Input = "b" })}}, http.StatusUnprocessableEntity},
		{"from collides with a sibling's key", []edit{{t3, set(func(tj *cfsm.TransitionJSON) { tj.From = "s1" })}}, http.StatusUnprocessableEntity},
		{"unknown field", []edit{{t1, func(tj *cfsm.TransitionJSON) []byte { return append([]byte(`{"bogus":1,`), marshal(tj)[1:]...) }}}, http.StatusBadRequest},
		{"dest names its own machine", []edit{{t1, set(func(tj *cfsm.TransitionJSON) { tj.Dest = "M1" })}}, http.StatusUnprocessableEntity},
		{"address rewire breaks IEO/IIO", []edit{rewireBreaking("IEO ∩ IIO")}, http.StatusUnprocessableEntity},
		{"address rewire breaks the chain rule", []edit{rewireBreaking("internal chain")}, http.StatusUnprocessableEntity},
		{"null object", []edit{{t1, func(*cfsm.TransitionJSON) []byte { return []byte("null") }}}, http.StatusUnprocessableEntity},
		{"two objects rewritten", []edit{
			{t1, set(func(tj *cfsm.TransitionJSON) { tj.Output = "d'" })},
			{t3, set(func(tj *cfsm.TransitionJSON) { tj.To = "s1" })},
		}, http.StatusOK},
		{"output outside the fault domain", []edit{{t1, set(func(tj *cfsm.TransitionJSON) { tj.Output = "never-used" })}}, http.StatusOK},
	}
	tour, _ := testgen.Tour(sys, 0)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			iut := rewrite(c.edits...)
			if _, patched := patchIUT(prog, spans, spec, iut); patched {
				t.Fatal("the patch accepts the rewrite")
			}
			resp, out := postRaw(t, srv, "/v1/diagnose", "application/json",
				slices.Concat([]byte(`{"spec":`), spec, []byte(`,"iut":`), iut, []byte(`}`)))
			want := httptest.NewRecorder()
			if full, err := cfsm.ReadSystem(iut); err != nil {
				writePipelineErr(want, fmt.Errorf("iut: %w", err))
			} else {
				oracle := &core.SystemOracle{Sys: full}
				loc, err := core.Diagnose(sys, tour, oracle)
				if err != nil {
					t.Fatal(err)
				}
				writeJSON(want, http.StatusOK, encodeLocalization(sys, tour, oracle.Tests, oracle.Inputs, loc))
			}
			if want.Code != c.status {
				t.Fatalf("the full read answers %d, want %d: %s", want.Code, c.status, want.Body)
			}
			if resp.StatusCode != want.Code || !bytes.Equal(out, want.Body.Bytes()) {
				t.Fatalf("answer %d %s\nfull read %d %s", resp.StatusCode, out, want.Code, want.Body)
			}
		})
	}
}

// TestInlineSpellingsShareOneProgram: byte-different spellings of one model
// are two document keys of one registry entry, so they share its system and
// its compiled program.
func TestInlineSpellingsShareOneProgram(t *testing.T) {
	s := newTestAPI(Config{})
	indented := readFixture(t, "figure1.json")
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	a, err := s.resolveModel(indented, "")
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.resolveModel(compact.Bytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("two spellings of Figure 1 resolved to two entries")
	}
	if a.program() == nil || a.program().System() != a.sys {
		t.Fatal("the entry's program is not compiled from its system")
	}
	if got := len(s.models.entries); got != 3 {
		t.Errorf("%d keys, want 3 (the hash and two document keys)", got)
	}
	if got := s.models.misses.Value(); got != 2 {
		t.Errorf("%d misses, want 2 (each spelling decoded once)", got)
	}
	if _, err := s.resolveModel(compact.Bytes(), ""); err != nil {
		t.Fatal(err)
	}
	if got := s.models.hits.Value(); got != 1 {
		t.Errorf("%d hits, want 1 (the repeated spelling)", got)
	}
}

// registryEntries returns the distinct entries the registry holds and fails
// the test unless each is held under its own hash and no two share one.
func registryEntries(t *testing.T, mr *modelRegistry) []*modelEntry {
	t.Helper()
	mr.mu.Lock()
	defer mr.mu.Unlock()
	var entries []*modelEntry
	byHash := map[string]*modelEntry{}
	for el := mr.lru.Front(); el != nil; el = el.Next() {
		e := el.Value.(keyedEntry).entry
		if held, ok := byHash[e.hash]; ok {
			if held != e {
				t.Fatalf("two entries share the hash %s", e.hash)
			}
			continue
		}
		byHash[e.hash] = e
		entries = append(entries, e)
		if el, ok := mr.entries[e.hash]; !ok || el.Value.(keyedEntry).entry != e {
			t.Fatalf("an entry is not held under its hash %s", e.hash)
		}
	}
	return entries
}

// TestDiagnoseSpellingsBindOneProgram posts two spellings, indented and
// compact, of Figure 1 and of a randgen 4x4 specification to
// /v1/diagnose. The bodies are built raw, because json.Marshal compacts a
// json.RawMessage. Both spellings must resolve to one entry, and every entry
// must hold the program compiled from its own system: core binds the engine
// it is handed only when the program's system is the specification, and
// compiles afresh otherwise.
func TestDiagnoseSpellingsBindOneProgram(t *testing.T) {
	s := newTestAPI(Config{})
	h := s.post(s.handleDiagnose)
	rand2 := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 2})
	randIUT, err := fault.Enumerate(rand2)[0].Apply(rand2)
	if err != nil {
		t.Fatal(err)
	}
	indent := func(doc []byte) []byte {
		var out bytes.Buffer
		if err := json.Indent(&out, doc, "", "  "); err != nil {
			t.Fatal(err)
		}
		return out.Bytes()
	}
	models := []struct {
		name      string
		spec, iut []byte
	}{
		{"figure1", readFixture(t, "figure1.json"), readFixture(t, "figure1-faulty.json")},
		{"randgen-4x4-seed2", indent(systemDoc(t, rand2)), systemDoc(t, randIUT)},
	}
	for _, m := range models {
		var compact bytes.Buffer
		if err := json.Compact(&compact, m.spec); err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(compact.Bytes(), m.spec) {
			t.Fatalf("%s: the indented spelling is already compact", m.name)
		}
		var first diagnoseResponse
		for i, spelling := range [][]byte{m.spec, compact.Bytes()} {
			body := slices.Concat([]byte(`{"spec":`), spelling, []byte(`,"iut":`), m.iut, []byte(`}`))
			rr := httptest.NewRecorder()
			h(rr, httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body)))
			if rr.Code != http.StatusOK {
				t.Fatalf("%s spelling %d: status %d: %s", m.name, i, rr.Code, rr.Body)
			}
			var got diagnoseResponse
			if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				first = got
			} else if !reflect.DeepEqual(got, first) {
				t.Fatalf("%s: the spellings diagnose differently: %+v and %+v", m.name, first, got)
			}
		}
		a, err := s.resolveModel(m.spec, "")
		if err != nil {
			t.Fatal(err)
		}
		if b, err := s.resolveModel(compact.Bytes(), ""); err != nil || a != b {
			t.Fatalf("%s: the two spellings resolve to two entries (%v)", m.name, err)
		}
	}
	entries := registryEntries(t, s.models)
	if len(entries) != len(models) {
		t.Fatalf("the registry holds %d entries, want %d: an implementation under test was registered", len(entries), len(models))
	}
	for _, e := range entries {
		if e.program().System() != e.sys {
			t.Fatalf("the entry for %s holds a program compiled from another system", e.hash)
		}
	}
}

// TestRegistryEvictsDocumentKeysFirst: under a tight cap the least recently
// used keys go, but an entry's hash key outlives its document keys, whether
// the entry was last registered or last hit, so every entry held stays
// resolvable by reference and a later spelling of it joins it.
func TestRegistryEvictsDocumentKeysFirst(t *testing.T) {
	indented := readFixture(t, "figure1.json")
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	other := systemDoc(t, randgen.MustGenerate(randgen.Config{N: 2, States: 2, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 1}))
	for name, docs := range map[string][][]byte{
		"registered": {indented, compact.Bytes(), other},
		"hit":        {indented, compact.Bytes(), indented, other},
	} {
		t.Run(name, func(t *testing.T) {
			s := newTestAPI(Config{ModelCacheEntries: 3})
			for _, doc := range docs {
				if _, err := s.resolveModel(doc, ""); err != nil {
					t.Fatal(err)
				}
			}
			if got := len(s.models.entries); got != 3 {
				t.Fatalf("%d keys under a cap of 3", got)
			}
			if entries := registryEntries(t, s.models); len(entries) != 2 {
				t.Fatalf("%d entries, want Figure 1 and the other model", len(entries))
			}
		})
	}
}

// TestDiagnoseSharesProgramAcrossRequests posts distinct mutants of one spec
// from 8 goroutines, so every request runs on its own engine over the one
// cached program (run it with -race). Each response must equal the library
// diagnosis (core's TestLibraryMatchesReference pins that one to the
// interpreted reference), and the inline IUTs add no registry key.
func TestDiagnoseSharesProgramAcrossRequests(t *testing.T) {
	s := newTestAPI(Config{})
	h := s.post(s.handleDiagnose)
	spec, err := randgen.Generate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	suite, _ := testgen.Tour(spec, 0)
	faults := fault.Enumerate(spec)
	const workers, perWorker = 8, 4
	if len(faults) < workers*perWorker {
		t.Fatalf("only %d mutants", len(faults))
	}
	specDoc := systemDoc(t, spec)

	var wg sync.WaitGroup
	iutDocs := make([][]byte, workers*perWorker)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := w; k < len(iutDocs); k += workers {
				f := faults[k]
				iut, err := f.Apply(spec)
				if err != nil {
					t.Error(err)
					return
				}
				if iutDocs[k], err = iut.MarshalJSON(); err != nil {
					t.Error(err)
					return
				}
				body, err := json.Marshal(diagnoseRequest{Spec: specDoc, IUT: iutDocs[k], Suite: cfsm.EncodeSuite(suite)})
				if err != nil {
					t.Error(err)
					return
				}
				rr := httptest.NewRecorder()
				h(rr, httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body)))
				if rr.Code != http.StatusOK {
					t.Errorf("%s: status %d: %s", f.Describe(spec), rr.Code, rr.Body)
					return
				}
				var got diagnoseResponse
				if err := json.Unmarshal(rr.Body.Bytes(), &got); err != nil {
					t.Error(err)
					return
				}
				oracle := &core.SystemOracle{Sys: iut}
				loc, err := core.Diagnose(spec, suite, oracle)
				if err != nil {
					t.Error(err)
					return
				}
				want := encodeLocalization(spec, suite, oracle.Tests, oracle.Inputs, loc)
				if got.Verdict != want.Verdict || got.Fault != want.Fault ||
					!slices.Equal(got.Remaining, want.Remaining) ||
					got.TotalTests != want.TotalTests || got.TotalInputs != want.TotalInputs {
					t.Errorf("%s: server %+v, library %+v", f.Describe(spec), got, want)
				}
			}
		}(w)
	}
	wg.Wait()

	e, ok := s.models.get(compiled.ModelHash(spec))
	if !ok || e.prog == nil {
		t.Fatal("the spec's entry holds no compiled program")
	}
	if got := len(s.models.entries); got != 2 {
		t.Fatalf("%d registry keys after %d distinct inline IUTs, want 2 (the spec's hash and document keys)", got, len(iutDocs))
	}
	for _, doc := range iutDocs {
		sum := sha256.Sum256(doc)
		if _, ok := s.models.get("doc:" + hex.EncodeToString(sum[:])); ok {
			t.Fatal("an inline IUT was registered")
		}
	}
}

// FuzzResolveInline feeds arbitrary bytes as the inline spec of
// /v1/validate: the handler never panics and answers only 200, 400 or 422,
// and an accepted document is registered at once under its document key and
// under the content hash of the system cfsm.ParseSystem builds from the same
// bytes, both keys naming one entry.
func FuzzResolveInline(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "figure1*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"machines":"M1"}`))
	s := newTestAPI(Config{})
	h := s.post(s.handleValidate)
	f.Fuzz(func(t *testing.T, doc []byte) {
		body := append(append([]byte(`{"spec":`), doc...), '}')
		rr := httptest.NewRecorder()
		h(rr, httptest.NewRequest(http.MethodPost, "/v1/validate", bytes.NewReader(body)))
		switch rr.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d: %s", rr.Code, rr.Body)
		}
		// The inline bytes the request carried, as the handler decoded them.
		var req validateRequest
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			t.Fatalf("accepted body does not decode: %v", err)
		}
		sys, err := cfsm.ParseSystem(req.Spec)
		if err != nil {
			t.Fatalf("accepted document does not parse: %v", err)
		}
		sum := sha256.Sum256(req.Spec)
		e, ok := s.models.get("doc:" + hex.EncodeToString(sum[:]))
		if !ok {
			t.Fatal("accepted document is not registered")
		}
		want := compiled.ModelHash(sys)
		if e.hash != want || compiled.ModelHash(e.sys) != want {
			t.Fatalf("registered system hashes to %s (entry hash %s), ParseSystem's to %s", compiled.ModelHash(e.sys), e.hash, want)
		}
		if held, ok := s.models.get(want); !ok || held != e {
			t.Fatalf("the content hash %s does not name the document's entry: %v", want, ok)
		}
	})
}
