package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
)

func systemDoc(t *testing.T, sys *cfsm.System) json.RawMessage {
	t.Helper()
	data, err := sys.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	return data
}

func post(t *testing.T, srv *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(srv.URL+path, "application/json", bytes.NewReader(data))
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

func TestValidateEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp, body := post(t, srv, "/v1/validate", validateRequest{Spec: systemDoc(t, paper.MustFigure1())})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v validateResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Machines != 3 || v.Transitions != 29 || len(v.Warnings) != 0 {
		t.Fatalf("response = %+v", v)
	}
}

// TestValidateWideSpec: a 95 KB specification with 2^32 global
// configurations validates in one bounded reachability pass — the request
// answers 200 instead of keeping a server core busy without bound.
func TestValidateWideSpec(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	spec := randgen.MustGenerate(randgen.Config{N: 8, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	resp, body := post(t, srv, "/v1/validate", validateRequest{Spec: systemDoc(t, spec)})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v validateResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Machines != 8 || v.Transitions != spec.NumTransitions() {
		t.Fatalf("response = %+v", v)
	}
}

func TestDiagnoseEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	req := diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	}
	resp, body := post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v diagnoseResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Verdict != "fault localized" {
		t.Fatalf("verdict = %q", v.Verdict)
	}
	if v.Fault != `M3.t"4 transfers to s0 instead of s1` {
		t.Fatalf("fault = %q", v.Fault)
	}
	if len(v.AdditionalTests) == 0 || v.AdditionalTests[0].Target != "M1.t7" {
		t.Fatalf("additional tests = %+v", v.AdditionalTests)
	}
	if len(v.Cleared) != 1 || v.Cleared[0] != "M1.t7" {
		t.Fatalf("cleared = %v", v.Cleared)
	}

	// Default suite (generated tour) also works.
	req.Suite = nil
	resp, body = post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
}

func TestAnalyzeEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	suite := paper.TestSuite()
	observed, err := iut.RunSuite(suite)
	if err != nil {
		t.Fatalf("RunSuite: %v", err)
	}
	var obsDoc [][]string
	for _, seq := range observed {
		obsDoc = append(obsDoc, cfsm.EncodeObs(seq))
	}
	req := analyzeRequest{
		Spec:         systemDoc(t, spec),
		Suite:        cfsm.EncodeSuite(suite),
		Observations: obsDoc,
	}
	resp, body := post(t, srv, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v analyzeResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Symptoms != 1 || len(v.Diagnoses) != 3 {
		t.Fatalf("response = %d symptoms, %d diagnoses", v.Symptoms, len(v.Diagnoses))
	}
	if len(v.Planned) != 3 {
		t.Fatalf("planned = %d", len(v.Planned))
	}
	if v.Planned[0].Target != "M1.t7" ||
		strings.Join(v.Planned[0].Inputs, ", ") != "R, c^1, b^1" {
		t.Fatalf("first planned = %+v", v.Planned[0])
	}
	if len(v.Planned[0].Predictions) != 2 {
		t.Fatalf("predictions = %+v", v.Planned[0].Predictions)
	}
	if !strings.Contains(v.Report, "Diag1") {
		t.Fatalf("report missing diagnoses")
	}
}

func TestSuiteEndpoint(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	spec := systemDoc(t, paper.MustFigure1())
	for _, kind := range []string{"", "tour", "verification", "verification-minimized"} {
		resp, body := post(t, srv, "/v1/suite", suiteRequest{Spec: spec, Kind: kind})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("kind %q: status %d: %s", kind, resp.StatusCode, body)
		}
		var v suiteResponse
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if len(v.Suite) == 0 {
			t.Errorf("kind %q: empty suite", kind)
		}
		if len(v.Uncovered) != 0 {
			t.Errorf("kind %q: uncovered = %v", kind, v.Uncovered)
		}
	}
	resp, _ := post(t, srv, "/v1/suite", suiteRequest{Spec: spec, Kind: "bogus"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bogus kind status = %d", resp.StatusCode)
	}
}

func TestEndpointErrors(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// Wrong method.
	resp, err := http.Get(srv.URL + "/v1/validate")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET status = %d", resp.StatusCode)
	}

	// Bad JSON.
	resp, err = http.Post(srv.URL+"/v1/validate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}

	// Invalid system.
	r, body := post(t, srv, "/v1/validate", map[string]any{"spec": map[string]any{"machines": []any{}}})
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid system status = %d: %s", r.StatusCode, body)
	}

	// Bad suite token in analyze.
	r, body = post(t, srv, "/v1/analyze", map[string]any{
		"spec":         systemDoc(t, paper.MustFigure1()),
		"suite":        []map[string]any{{"name": "x", "inputs": []string{"bogus"}}},
		"observations": [][]string{{"-"}},
	})
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("bad suite status = %d: %s", r.StatusCode, body)
	}
}
