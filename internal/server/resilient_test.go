package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

// unreachableSystem builds a system whose every transition starts from a
// non-initial state: the generated transition tour covers nothing.
func unreachableSystem(t *testing.T) *cfsm.System {
	t.Helper()
	m, err := cfsm.NewMachine("M1", "s0", []cfsm.State{"s0", "s1"}, []cfsm.Transition{
		{Name: "t1", From: "s1", Input: "a", Output: "b", To: "s1", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(m)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

// TestDiagnoseSuiteOmittedEmptyTour422 is the regression test for the
// suite-omitted path: when the request has no suite and the generated tour
// comes back empty, the server must answer 422 with the generator's
// explanation instead of silently diagnosing "no fault" on zero tests.
func TestDiagnoseSuiteOmittedEmptyTour422(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	sys := unreachableSystem(t)
	req := diagnoseRequest{Spec: systemDoc(t, sys), IUT: systemDoc(t, sys)}
	resp, body := post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422: %s", resp.StatusCode, body)
	}
	var envelope struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.Unmarshal(body, &envelope); err != nil {
		t.Fatalf("decode error envelope: %v", err)
	}
	if envelope.Error.Code != codeUnprocessable {
		t.Errorf("code = %q, want %q", envelope.Error.Code, codeUnprocessable)
	}
	if !strings.Contains(envelope.Error.Message, "transition tour is empty") ||
		!strings.Contains(envelope.Error.Message, "unreachable") {
		t.Errorf("message = %q, want the generator's explanation", envelope.Error.Message)
	}

	// The same spec with an explicit suite is still served.
	req.Suite = []cfsm.CaseJSON{{Name: "T1", Inputs: []string{"R", "a^1"}}}
	resp, body = post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("explicit suite: status = %d: %s", resp.StatusCode, body)
	}
}

// TestDiagnoseWithResilientOracle checks the serve-side wiring of the retry
// layer: a configured server still reproduces the paper's diagnosis and
// exports the resilient metric families on /metrics.
func TestDiagnoseWithResilientOracle(t *testing.T) {
	srv := httptest.NewServer(New(Config{OracleVotes: 2, OracleRetries: 1}))
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
	if v.Verdict != "fault localized" || v.Fault != `M3.t"4 transfers to s0 instead of s1` {
		t.Fatalf("verdict = %q, fault = %q", v.Verdict, v.Fault)
	}
	if len(v.Inconclusive) != 0 {
		t.Errorf("inconclusive = %v on a healthy oracle", v.Inconclusive)
	}

	mresp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer mresp.Body.Close()
	metrics, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if !strings.Contains(string(metrics), "cfsmdiag_resilient_attempts_total") {
		t.Errorf("/metrics missing the resilient families")
	}
	// Votes=2 executes every oracle query twice, so the attempt counter must
	// have moved off zero — proof the layer actually sat in the chain.
	if strings.Contains(string(metrics), "cfsmdiag_resilient_attempts_total 0\n") {
		t.Errorf("resilient layer configured but never engaged")
	}
}
