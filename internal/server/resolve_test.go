package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
}

// TestInlineSpellingsShareOneProgram: byte-different spellings of one model
// are two registry entries, one per document key, that share one compiled
// program once both are used as specifications.
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
	if a.program() != b.program() {
		t.Fatal("two spellings of Figure 1 resolved to different programs")
	}
	if a.program() == nil || a.program().System() != a.sys {
		t.Fatal("the entry's program is not compiled from its system")
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

// TestDiagnoseSharesProgramAcrossRequests posts distinct mutants of one spec
// from 8 goroutines, so every request runs on its own engine over the one
// cached program (run it with -race). Each response must equal the library
// diagnosis (core's TestLibraryMatchesReference pins that one to the
// interpreted reference), and the IUT entries stay uncompiled.
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
				want := encodeLocalization(spec, suite, oracle, loc)
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
	for _, doc := range iutDocs {
		sum := sha256.Sum256(doc)
		if e, ok := s.models.get("doc:" + hex.EncodeToString(sum[:])); ok && e.prog != nil {
			t.Error("an IUT-only entry was compiled")
		}
	}
}

// FuzzResolveInline feeds arbitrary bytes as the inline spec of
// /v1/validate: the handler never panics and answers only 200, 400 or 422,
// and an accepted document is registered under its document key; once used
// as a specification it is registered under the content hash of the system
// cfsm.ParseSystem builds from the same bytes.
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
		if compiled.ModelHash(e.sys) != want {
			t.Fatalf("registered system hashes to %s, ParseSystem's to %s", compiled.ModelHash(e.sys), want)
		}
		prog := e.program()
		if held, ok := s.models.get(want); e.hash != want || !ok || held.program() != prog {
			t.Fatalf("used as a specification, the entry has hash %q and the registry holds %s: %v", e.hash, want, ok)
		}
	})
}

// TestRegistryCapChargesCanonicalKeys: an inline document resolved only as
// an implementation under test holds one key, its document key, but the cap
// charges it for its canonical key too, so the registry holds as many
// models as when both keys were registered. Using it as a specification
// moves the charge onto the real key.
func TestRegistryCapChargesCanonicalKeys(t *testing.T) {
	s := newTestAPI(Config{ModelCacheEntries: 4})
	spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 1})
	var entries []*modelEntry
	for _, f := range fault.Enumerate(spec)[:4] {
		iut, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		e, err := s.resolveModel(systemDoc(t, iut), "")
		if err != nil {
			t.Fatal(err)
		}
		entries = append(entries, e)
	}
	if got := len(s.models.entries); got != 2 || s.models.charged != 2 {
		t.Fatalf("%d keys and %d charged entries under a cap of 4, want 2 and 2", got, s.models.charged)
	}
	last := entries[len(entries)-1]
	last.program()
	if got := len(s.models.entries); got != 3 || s.models.charged != 1 || last.charged {
		t.Fatalf("after use as a specification: %d keys, %d charged, want 3 and 1", got, s.models.charged)
	}
	if _, ok := s.models.get(last.hash); !ok {
		t.Fatal("the specification is not registered under its hash")
	}
}
