package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/trace"
)

// TestDiagnoseTraceDisabledAnswers501: "?trace=1" on a server without
// tracing is explicitly not implemented — not a 404 — and carries the
// standard error envelope.
func TestDiagnoseTraceDisabledAnswers501(t *testing.T) {
	srv := httptest.NewServer(New(Config{})) // default config: tracing off
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, srv, "/v1/diagnose?trace=1", diagnoseRequest{
		Spec: systemDoc(t, paper.MustFigure1()),
		IUT:  systemDoc(t, iut),
	})
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("status = %d, want 501: %s", resp.StatusCode, body)
	}
	env := decodeEnvelope(t, body)
	if env.Error.Code != codeNotImplemented {
		t.Fatalf("code = %q, want %q", env.Error.Code, codeNotImplemented)
	}
	if !strings.Contains(env.Error.Message, "tracing") {
		t.Fatalf("message does not explain the gate: %q", env.Error.Message)
	}
}

// TestDiagnoseTraceInline: with tracing enabled, "?trace=1" returns the
// structured trace inline; the events validate against the exporter schema
// and — because the replay header is recorded first — load as a replayable
// run that reproduces the verdict offline. The traced request is the same
// diagnosis as the plain one, so both add the same oracle query and input
// counts (Figure 1: 2 suite cases plus 2 diagnostic tests, 20 inputs).
func TestDiagnoseTraceInline(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{EnableTracing: true, Registry: reg}))
	defer srv.Close()
	var queries, inputs int64
	checkOracleCounts := func(label string) {
		t.Helper()
		q := reg.Counter("cfsmdiag_oracle_queries_total", "").Value()
		in := reg.Counter("cfsmdiag_oracle_inputs_total", "").Value()
		if q-queries != 4 || in-inputs != 20 {
			t.Errorf("%s request counted %d oracle queries and %d inputs, want 4 and 20", label, q-queries, in-inputs)
		}
		queries, inputs = q, in
	}

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	resp, body := post(t, srv, "/v1/diagnose?trace=1", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	var dr diagnoseResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if dr.Verdict != "fault localized" {
		t.Fatalf("verdict = %q", dr.Verdict)
	}
	if len(dr.Trace) == 0 {
		t.Fatal("response carries no trace events")
	}

	run, err := replay.Load(dr.Trace)
	if err != nil {
		t.Fatalf("trace is not replayable: %v", err)
	}
	rloc, oracle, err := run.Localize()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if rloc.Verdict.String() != dr.Verdict {
		t.Fatalf("replayed verdict %q, response said %q", rloc.Verdict, dr.Verdict)
	}
	if rloc.Fault == nil || rloc.Fault.Describe(run.Spec) != dr.Fault {
		t.Fatalf("replayed fault %v, response said %q", rloc.Fault, dr.Fault)
	}
	if oracle.Queries != len(dr.AdditionalTests) {
		t.Fatalf("replay used %d oracle queries, response executed %d additional tests",
			oracle.Queries, len(dr.AdditionalTests))
	}
	checkOracleCounts("traced")

	// A plain request on the same server must stay trace-free.
	resp, body = post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("untraced status = %d: %s", resp.StatusCode, body)
	}
	var plain diagnoseResponse
	if err := json.Unmarshal(body, &plain); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if len(plain.Trace) != 0 {
		t.Fatalf("untraced response carries %d trace events", len(plain.Trace))
	}
	if plain.Verdict != dr.Verdict || plain.Fault != dr.Fault {
		t.Fatalf("traced and untraced runs disagree: %q/%q vs %q/%q",
			dr.Verdict, dr.Fault, plain.Verdict, plain.Fault)
	}
	checkOracleCounts("untraced")
}

// TestDiagnoseTraceKindsKnown: every inline event uses a registered kind, so
// the exported JSONL passes the schema validator.
func TestDiagnoseTraceKindsKnown(t *testing.T) {
	srv := httptest.NewServer(New(Config{EnableTracing: true}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	_, body := post(t, srv, "/v1/diagnose?trace=1", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	var dr diagnoseResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	for _, e := range dr.Trace {
		if !trace.KnownKind(e.Kind) {
			t.Fatalf("unknown event kind %q in response trace", e.Kind)
		}
	}
}

// TestRouteList pins the startup-log surface, including the pprof gate.
func TestRouteList(t *testing.T) {
	base := RouteList(Config{})
	joined := strings.Join(base, "\n")
	for _, want := range []string{
		"POST /v1/diagnose",
		"GET /healthz",
		"GET /metrics",
	} {
		if !strings.Contains(joined, want) {
			t.Fatalf("RouteList lacks %q:\n%s", want, joined)
		}
	}
	if strings.Contains(joined, "pprof") {
		t.Fatalf("pprof listed without EnablePprof:\n%s", joined)
	}
	if strings.Contains(joined, "/api/") {
		t.Fatalf("removed /api/* aliases listed:\n%s", joined)
	}
	if strings.Contains(joined, "/v1/cluster") {
		t.Fatalf("cluster routes listed without EnableCluster:\n%s", joined)
	}
	withPprof := strings.Join(RouteList(Config{EnablePprof: true}), "\n")
	if !strings.Contains(withPprof, "GET /debug/pprof/") {
		t.Fatalf("RouteList with pprof lacks the debug route:\n%s", withPprof)
	}
	withCluster := strings.Join(RouteList(Config{EnableCluster: true}), "\n")
	for _, want := range []string{
		"POST /v1/cluster/sweeps",
		"POST /v1/cluster/sweeps/{id}/lease",
		"POST /v1/cluster/sweeps/{id}/ranges/{n}/result",
	} {
		if !strings.Contains(withCluster, want) {
			t.Fatalf("RouteList with cluster lacks %q:\n%s", want, withCluster)
		}
	}
}
