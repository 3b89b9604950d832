package server

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
)

// postRaw posts an arbitrary body with an explicit content type (the model
// upload endpoint accepts binary bodies, which the JSON helper can't send).
func postRaw(t *testing.T, srv *httptest.Server, path, contentType string, body []byte) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(srv.URL+path, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

// TestModelUploadAndRef uploads Figure 1 in the binary form, reads it back by
// hash, and runs a diagnosis that names both systems by reference only.
func TestModelUploadAndRef(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{Registry: reg}))
	defer srv.Close()

	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}

	resp, body := postRaw(t, srv, "/v1/models", "application/octet-stream", compiled.EncodeSystem(spec))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("binary upload status = %d: %s", resp.StatusCode, body)
	}
	var up modelResponse
	if err := json.Unmarshal(body, &up); err != nil {
		t.Fatalf("decode upload response: %v", err)
	}
	if up.Hash != compiled.ModelHash(spec) {
		t.Fatalf("upload hash %s, want %s", up.Hash, compiled.ModelHash(spec))
	}
	if up.Machines != 3 || up.Transitions != 29 || up.Cached {
		t.Fatalf("upload response = %+v", up)
	}

	// Upload the IUT as a JSON document (the other accepted wire form).
	iutDoc, err := iut.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	resp, body = postRaw(t, srv, "/v1/models", "application/json", iutDoc)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("json upload status = %d: %s", resp.StatusCode, body)
	}
	var upIUT modelResponse
	if err := json.Unmarshal(body, &upIUT); err != nil {
		t.Fatal(err)
	}

	// GET the spec back and check the round trip.
	resp, body = get(t, srv, "/v1/models/"+up.Hash)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET model status = %d: %s", resp.StatusCode, body)
	}
	var got modelGetResponse
	if err := json.Unmarshal(body, &got); err != nil {
		t.Fatal(err)
	}
	specDoc, err := spec.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	// The wire copy is compact, the canonical form indented; compare compacted.
	var want, gotCompact bytes.Buffer
	if err := json.Compact(&want, specDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Compact(&gotCompact, got.Spec); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotCompact.Bytes(), want.Bytes()) {
		t.Fatalf("GET model returned a different document:\n%s\nvs\n%s", got.Spec, specDoc)
	}

	// The binary form must round-trip byte-identically.
	resp, body = get(t, srv, "/v1/models/"+up.Hash+"?format=binary")
	if resp.StatusCode != http.StatusOK || !bytes.Equal(body, compiled.EncodeSystem(spec)) {
		t.Fatalf("binary GET diverged (status %d, %d bytes)", resp.StatusCode, len(body))
	}

	// Diagnose by reference: the verdict must match the inline-document path.
	refResp, refBody := post(t, srv, "/v1/diagnose", diagnoseRequest{
		SpecRef: up.Hash, IUTRef: upIUT.Hash, Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if refResp.StatusCode != http.StatusOK {
		t.Fatalf("ref diagnose status = %d: %s", refResp.StatusCode, refBody)
	}
	inResp, inBody := post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec: systemDoc(t, spec), IUT: systemDoc(t, iut), Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if inResp.StatusCode != http.StatusOK {
		t.Fatalf("inline diagnose status = %d: %s", inResp.StatusCode, inBody)
	}
	if !bytes.Equal(refBody, inBody) {
		t.Fatalf("by-reference diagnosis differs from inline:\n%s\nvs\n%s", refBody, inBody)
	}

	if reg.Counter(metricModelHits, "").Value() == 0 {
		t.Error("registry served no hits despite by-reference requests")
	}
	if reg.Counter(metricModelUploads, "").Value() != 2 {
		t.Errorf("uploads counter = %d, want 2", reg.Counter(metricModelUploads, "").Value())
	}
}

// TestModelRegistryCachesInlineDocs: the second submission of an identical
// inline document is a cache hit — the model is not re-validated.
func TestModelRegistryCachesInlineDocs(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{Registry: reg}))
	defer srv.Close()

	req := validateRequest{Spec: systemDoc(t, paper.MustFigure1())}
	for i := 0; i < 3; i++ {
		if resp, body := post(t, srv, "/v1/validate", req); resp.StatusCode != http.StatusOK {
			t.Fatalf("validate #%d status = %d: %s", i+1, resp.StatusCode, body)
		}
	}
	if hits := reg.Counter(metricModelHits, "").Value(); hits != 2 {
		t.Errorf("hits = %d, want 2 (first resolution is the only miss)", hits)
	}
	if misses := reg.Counter(metricModelMisses, "").Value(); misses != 1 {
		t.Errorf("misses = %d, want 1", misses)
	}
}

// TestModelUploadRejects walks the upload failure taxonomy: structurally bad
// binaries answer 422 unsupported_model_format (mirroring the codec's typed
// errors), invalid models answer 422 unprocessable, and non-JSON garbage
// answers 400.
func TestModelUploadRejects(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{Registry: reg}))
	defer srv.Close()

	data := compiled.EncodeSystem(paper.MustFigure1())
	futureVersion := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(futureVersion[len(compiled.Magic):], compiled.Version+1)
	flippedPayload := append([]byte(nil), data...)
	flippedPayload[len(flippedPayload)-1] ^= 0x20
	truncated := data[:len(data)-9]

	cases := []struct {
		name   string
		body   []byte
		status int
		code   string
	}{
		{"future-version", futureVersion, http.StatusUnprocessableEntity, codeUnsupportedModel},
		{"hash-mismatch", flippedPayload, http.StatusUnprocessableEntity, codeUnsupportedModel},
		{"truncated", truncated, http.StatusUnprocessableEntity, codeUnsupportedModel},
		{"not-json", []byte("not a model at all"), http.StatusBadRequest, codeBadRequest},
		{"invalid-model", []byte(`{"machines":[{"name":"A","initial":"sX","states":["s0"],"transitions":[]}]}`),
			http.StatusUnprocessableEntity, codeUnprocessable},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postRaw(t, srv, "/v1/models", "application/octet-stream", tc.body)
			if resp.StatusCode != tc.status {
				t.Fatalf("status = %d, want %d: %s", resp.StatusCode, tc.status, body)
			}
			if env := decodeEnvelope(t, body); env.Error.Code != tc.code {
				t.Fatalf("code = %q, want %q (%s)", env.Error.Code, tc.code, env.Error.Message)
			}
		})
	}
	if rejects := reg.Counter(metricModelRejects, "").Value(); rejects != int64(len(cases)) {
		t.Errorf("rejects counter = %d, want %d", rejects, len(cases))
	}
	if reg.Counter(metricModelUploads, "").Value() != 0 {
		t.Error("a rejected upload bumped the uploads counter")
	}
}

// TestModelRefMisses: an unknown reference fails with a clear message, both
// on the HTTP path and on lookup.
func TestModelRefMisses(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp, body := post(t, srv, "/v1/diagnose", diagnoseRequest{
		SpecRef: "deadbeef", IUT: systemDoc(t, paper.MustFigure1()),
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if !strings.Contains(env.Error.Message, "not in the registry") {
		t.Fatalf("message = %q", env.Error.Message)
	}

	if resp, body = get(t, srv, "/v1/models/deadbeef"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET unknown model status = %d: %s", resp.StatusCode, body)
	}
}

// TestModelRegistryEviction: a tiny cache evicts the least recently used
// model; the evicted model is gone, the newest survive.
func TestModelRegistryEviction(t *testing.T) {
	srv := httptest.NewServer(New(Config{ModelCacheEntries: 2}))
	defer srv.Close()

	abp, err := protocols.ABP()
	if err != nil {
		t.Fatal(err)
	}
	gbn, err := protocols.GoBackN()
	if err != nil {
		t.Fatal(err)
	}
	var hashes []string
	for _, sys := range []any{paper.MustFigure1(), abp, gbn} {
		s := sys.(interface{ MarshalJSON() ([]byte, error) })
		doc, err := s.MarshalJSON()
		if err != nil {
			t.Fatal(err)
		}
		resp, body := postRaw(t, srv, "/v1/models", "application/json", doc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("upload status = %d: %s", resp.StatusCode, body)
		}
		var up modelResponse
		if err := json.Unmarshal(body, &up); err != nil {
			t.Fatal(err)
		}
		hashes = append(hashes, up.Hash)
	}
	if resp, _ := get(t, srv, "/v1/models/"+hashes[0]); resp.StatusCode != http.StatusNotFound {
		t.Errorf("oldest model still cached after eviction (status %d)", resp.StatusCode)
	}
	for _, h := range hashes[1:] {
		if resp, _ := get(t, srv, "/v1/models/"+h); resp.StatusCode != http.StatusOK {
			t.Errorf("recent model %s evicted (status %d)", h, resp.StatusCode)
		}
	}
}

// TestModelRegistryKeepsHotModels: a specification used on every request
// stays cached while one-off IUT documents stream past a small cache, so
// every spec lookup after the first is a hit. A FIFO cache evicts it.
func TestModelRegistryKeepsHotModels(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{Registry: reg, ModelCacheEntries: 8}))
	defer srv.Close()
	hits := reg.Counter(metricModelHits, "")

	spec := paper.MustFigure1()
	faults := fault.Enumerate(spec)
	for i, f := range faults[:20] {
		iut, err := f.Apply(spec)
		if err != nil {
			t.Fatal(err)
		}
		before := hits.Value()
		resp, body := post(t, srv, "/v1/diagnose", diagnoseRequest{
			Spec:  systemDoc(t, spec),
			IUT:   systemDoc(t, iut),
			Suite: cfsm.EncodeSuite(paper.TestSuite()),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
		// The IUT is new on every request, so only the spec can hit.
		want := int64(1)
		if i == 0 {
			want = 0
		}
		if got := hits.Value() - before; got != want {
			t.Errorf("request %d: %d registry hits, want %d (the spec lookup)", i, got, want)
		}
	}
	// A hit on the inline document keeps the model's canonical hash too.
	if resp, body := get(t, srv, "/v1/models/"+compiled.ModelHash(spec)); resp.StatusCode != http.StatusOK {
		t.Errorf("hot spec no longer resolvable by hash: %d: %s", resp.StatusCode, body)
	}
}
