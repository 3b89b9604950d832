package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	httpapi "cfsmdiag/internal/server/api"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

// perMachinePorts assigns every Figure 1 machine to its own observer site.
var perMachinePorts = map[string]string{
	"M1": "site-01", "M2": "site-02", "M3": "site-03",
}

func errCode(t *testing.T, body []byte) string {
	t.Helper()
	var env httpapi.ErrorEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatalf("decode error envelope: %v (%s)", err, body)
	}
	return env.Error.Code
}

func TestDiagnoseWithPortMap(t *testing.T) {
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
		Ports: perMachinePorts,
	}
	resp, body := post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v diagnoseResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Ports == nil {
		t.Fatalf("response carries no ports report: %s", body)
	}
	if len(v.Ports.Observers) != 3 || v.Ports.Cases != len(paper.TestSuite()) {
		t.Errorf("ports report = %+v", v.Ports)
	}
	// The distributed pipeline must never convict wrongly: the verdict is
	// either the true localization or a sound degradation.
	switch v.Verdict {
	case "fault localized":
		if v.Fault != `M3.t"4 transfers to s0 instead of s1` {
			t.Errorf("localized the wrong fault: %q", v.Fault)
		}
	case "multiple candidate faults remain", "inconclusive":
	default:
		t.Errorf("verdict = %q", v.Verdict)
	}

	// A degenerate single-observer map answers exactly like the classical
	// pipeline, ports report aside.
	req.Ports = map[string]string{"M1": "hub", "M2": "hub", "M3": "hub"}
	resp, body = post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-observer status = %d: %s", resp.StatusCode, body)
	}
	var single diagnoseResponse
	if err := json.Unmarshal(body, &single); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if single.Verdict != "fault localized" || single.Fault != `M3.t"4 transfers to s0 instead of s1` {
		t.Errorf("single-observer verdict = %q fault = %q", single.Verdict, single.Fault)
	}
}

func TestAnalyzeWithPortMap(t *testing.T) {
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
		Ports:        perMachinePorts,
	}
	resp, body := post(t, srv, "/v1/analyze", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var v analyzeResponse
	if err := json.Unmarshal(body, &v); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if v.Ports == nil {
		t.Fatalf("response carries no ports report: %s", body)
	}
	if v.Symptoms < 1 {
		t.Errorf("symptoms = %d, want at least the global symptom", v.Symptoms)
	}
	// Losing global order can only enlarge the candidate set.
	if len(v.Diagnoses) < 3 {
		t.Errorf("diagnoses = %d, want >= 3 (the global candidate set)", len(v.Diagnoses))
	}
}

func TestInvalidPortMapRejected(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	base := diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	}
	for name, pm := range map[string]map[string]string{
		"unknown machine":    {"M1": "a", "M2": "a", "M3": "a", "M9": "b"},
		"unassigned machine": {"M1": "a"},
		"empty observer":     {"M1": "a", "M2": "", "M3": "a"},
	} {
		req := base
		req.Ports = pm
		resp, body := post(t, srv, "/v1/diagnose", req)
		if resp.StatusCode != http.StatusUnprocessableEntity {
			t.Errorf("%s: status = %d: %s", name, resp.StatusCode, body)
			continue
		}
		if code := errCode(t, body); code != httpapi.CodeInvalidPortMap {
			t.Errorf("%s: code = %q", name, code)
		}
	}

	// Analyze shares the validation and the code.
	r, body := post(t, srv, "/v1/analyze", map[string]any{
		"spec":         systemDoc(t, paper.MustFigure1()),
		"suite":        []map[string]any{{"name": "x", "inputs": []string{"R"}}},
		"observations": [][]string{{"-"}},
		"ports":        map[string]string{"M1": "a"},
	})
	if r.StatusCode != http.StatusUnprocessableEntity || errCode(t, body) != httpapi.CodeInvalidPortMap {
		t.Errorf("analyze invalid map: status = %d code = %q", r.StatusCode, errCode(t, body))
	}
}

func TestDuplicateTestCaseRejected(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	dup := []cfsm.CaseJSON{
		{Name: "T1", Inputs: []string{"R"}},
		{Name: "T1", Inputs: []string{"R"}},
	}
	resp, body := post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: dup,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("diagnose status = %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != httpapi.CodeDuplicateTestCase {
		t.Errorf("diagnose code = %q", code)
	}

	// Unnamed cases collide through their assigned tc%d names only when an
	// explicit name claims the same slot.
	resp, body = post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec: systemDoc(t, paper.MustFigure1()),
		IUT:  systemDoc(t, iut),
		Suite: []cfsm.CaseJSON{
			{Inputs: []string{"R"}},
			{Name: "tc1", Inputs: []string{"R"}},
		},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity || errCode(t, body) != httpapi.CodeDuplicateTestCase {
		t.Errorf("auto-name collision: status = %d code = %q", resp.StatusCode, errCode(t, body))
	}

	resp, body = post(t, srv, "/v1/analyze", map[string]any{
		"spec": systemDoc(t, paper.MustFigure1()),
		"suite": []map[string]any{
			{"name": "T1", "inputs": []string{"R"}},
			{"name": "T1", "inputs": []string{"R"}},
		},
		"observations": [][]string{{"-"}, {"-"}},
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	if code := errCode(t, body); code != httpapi.CodeDuplicateTestCase {
		t.Errorf("analyze code = %q", code)
	}
}

func TestPortsWithTraceRejected(t *testing.T) {
	srv := httptest.NewServer(New(Config{EnableTracing: true}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	req := diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
		Ports: perMachinePorts,
	}
	resp, body := post(t, srv, "/v1/diagnose?trace=1", req)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}

	// A single-observer map is the classical pipeline and traces fine.
	req.Ports = map[string]string{"M1": "hub", "M2": "hub", "M3": "hub"}
	resp, body = post(t, srv, "/v1/diagnose?trace=1", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("single-observer traced status = %d: %s", resp.StatusCode, body)
	}
}
