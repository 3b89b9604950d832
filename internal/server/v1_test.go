package server

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
)

// decodeEnvelope asserts a response carries the single v1 error envelope
// {"error": {"code": ..., "message": ...}} and returns it.
func decodeEnvelope(t *testing.T, body []byte) errorEnvelope {
	t.Helper()
	var env errorEnvelope
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&env); err != nil {
		t.Fatalf("response is not the error envelope: %v\nbody: %s", err, body)
	}
	if env.Error.Code == "" || env.Error.Message == "" {
		t.Fatalf("envelope missing code or message: %s", body)
	}
	return env
}

func TestV1Validate(t *testing.T) {
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
	if v.Machines != 3 || v.Transitions != 29 {
		t.Fatalf("response = %+v", v)
	}
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no X-Request-ID header")
	}
}

// TestLegacySunset: the unversioned /api/* aliases of the first release are
// gone — past their sunset they answered 410 Gone; now no route matches
// them at all.
func TestLegacySunset(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp, body := post(t, srv, "/api/validate", validateRequest{Spec: systemDoc(t, paper.MustFigure1())})
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404: %s", resp.StatusCode, body)
	}
}

func TestErrorEnvelopeShape(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	// 405: wrong method, with Allow header.
	for _, path := range []string{"/v1/diagnose"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		body := readAll(t, resp)
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s status = %d", path, resp.StatusCode)
		}
		if allow := resp.Header.Get("Allow"); allow != http.MethodPost {
			t.Errorf("GET %s Allow = %q", path, allow)
		}
		if env := decodeEnvelope(t, body); env.Error.Code != codeMethodNotAllowed {
			t.Errorf("GET %s code = %q", path, env.Error.Code)
		}
	}

	// 415: wrong content type.
	resp, err := http.Post(srv.URL+"/v1/validate", "text/plain", strings.NewReader("hi"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("text/plain status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeUnsupportedMedia {
		t.Errorf("text/plain code = %q", env.Error.Code)
	}

	// 400: malformed JSON.
	resp, err = http.Post(srv.URL+"/v1/validate", "application/json", strings.NewReader("{"))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad JSON status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeBadRequest {
		t.Errorf("bad JSON code = %q", env.Error.Code)
	}

	// 404: unknown route.
	resp, err = http.Get(srv.URL + "/v2/anything")
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	body = readAll(t, resp)
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown route status = %d", resp.StatusCode)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeNotFound {
		t.Errorf("unknown route code = %q", env.Error.Code)
	}

	// 422: semantically invalid system.
	r, body422 := post(t, srv, "/v1/validate", map[string]any{"spec": map[string]any{"machines": []any{}}})
	if r.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("invalid system status = %d", r.StatusCode)
	}
	if env := decodeEnvelope(t, body422); env.Error.Code != codeUnprocessable {
		t.Errorf("invalid system code = %q", env.Error.Code)
	}
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return buf.Bytes()
}

func TestBodySizeCap(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxBodyBytes: 64}))
	defer srv.Close()

	resp, body := post(t, srv, "/v1/validate", validateRequest{Spec: systemDoc(t, paper.MustFigure1())})
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codePayloadTooLarge {
		t.Errorf("code = %q", env.Error.Code)
	}
}

func TestSuiteSizeCap(t *testing.T) {
	srv := httptest.NewServer(New(Config{MaxSuiteCases: 2, MaxCaseInputs: 3}))
	defer srv.Close()

	spec := systemDoc(t, paper.MustFigure1())
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}

	// Too many cases.
	req := diagnoseRequest{Spec: spec, IUT: systemDoc(t, iut), Suite: []cfsm.CaseJSON{
		{Inputs: []string{"a^1"}}, {Inputs: []string{"a^1"}}, {Inputs: []string{"a^1"}},
	}}
	resp, body := post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("3-case status = %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeSuiteTooLarge {
		t.Errorf("3-case code = %q", env.Error.Code)
	}

	// A single case with too many inputs.
	req.Suite = []cfsm.CaseJSON{{Inputs: []string{"a^1", "a^1", "a^1", "a^1"}}}
	resp, body = post(t, srv, "/v1/diagnose", req)
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("long-case status = %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeSuiteTooLarge {
		t.Errorf("long-case code = %q", env.Error.Code)
	}

	// The observation list on /v1/analyze is capped too.
	many := make([][]string, 5)
	resp, body = post(t, srv, "/v1/analyze", analyzeRequest{
		Spec: spec, Suite: []cfsm.CaseJSON{{Inputs: []string{"a^1"}}}, Observations: many,
	})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("analyze status = %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeSuiteTooLarge {
		t.Errorf("analyze code = %q", env.Error.Code)
	}
}

func TestHealthz(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var v map[string]string
	if err := json.Unmarshal(body, &v); err != nil || v["status"] != "ok" {
		t.Fatalf("body = %s (err %v)", body, err)
	}

	resp, err = http.Post(srv.URL+"/healthz", "application/json", nil)
	if err != nil {
		t.Fatalf("POST /healthz: %v", err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("POST status = %d", resp.StatusCode)
	}
}

// TestMetricsAfterDiagnose exercises /v1/diagnose, then asserts /metrics
// exposes the request-latency, oracle-query and sweep-duration families.
func TestMetricsAfterDiagnose(t *testing.T) {
	reg := obs.New()
	srv := httptest.NewServer(New(Config{Registry: reg}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	resp, body := post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnose status = %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	text := string(readAll(t, resp))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type = %q", ct)
	}
	for _, family := range []string{
		"cfsmdiag_http_request_duration_seconds",
		"cfsmdiag_http_requests_total",
		"cfsmdiag_oracle_queries_total",
		"cfsmdiag_localize_verdicts_total",
		"cfsmdiag_sweep_duration_seconds",
		"cfsmdiag_sim_steps_total",
	} {
		if !strings.Contains(text, family) {
			t.Errorf("/metrics missing family %s", family)
		}
	}
	// The diagnose call must have recorded real traffic, not just schema.
	if !strings.Contains(text, `cfsmdiag_http_requests_total{method="POST",route="/v1/diagnose",status="200"} 1`) {
		t.Errorf("request counter not recorded:\n%s", text)
	}
	if reg.Counter("cfsmdiag_oracle_queries_total", "").Value() == 0 {
		t.Error("oracle query counter is zero after a diagnosis")
	}
}

// TestRequestTimeout: an expired per-request deadline cancels the in-flight
// diagnosis and maps to 504 with the timeout code.
func TestRequestTimeout(t *testing.T) {
	srv := httptest.NewServer(New(Config{RequestTimeout: time.Nanosecond}))
	defer srv.Close()

	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	resp, body := post(t, srv, "/v1/diagnose", diagnoseRequest{
		Spec:  systemDoc(t, paper.MustFigure1()),
		IUT:   systemDoc(t, iut),
		Suite: cfsm.EncodeSuite(paper.TestSuite()),
	})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d: %s", resp.StatusCode, body)
	}
	if env := decodeEnvelope(t, body); env.Error.Code != codeTimeout {
		t.Errorf("code = %q", env.Error.Code)
	}
}

// TestRequestIDPropagation: a caller-supplied ID is echoed; absent one is
// generated.
func TestRequestIDPropagation(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	defer srv.Close()

	req, err := http.NewRequest(http.MethodGet, srv.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Request-ID", "test-id-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if got := resp.Header.Get("X-Request-ID"); got != "test-id-42" {
		t.Errorf("echoed request ID = %q", got)
	}

	resp, err = http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.Header.Get("X-Request-ID") == "" {
		t.Error("no generated request ID")
	}
}

// TestAccessLog: requests produce structured access-log lines with the
// request ID and route.
func TestAccessLog(t *testing.T) {
	var buf bytes.Buffer
	logger := obs.NewLogger(&buf, slog.LevelInfo, true)
	srv := httptest.NewServer(New(Config{Logger: logger}))
	defer srv.Close()

	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	line := buf.String()
	if !strings.Contains(line, `"route":"/healthz"`) || !strings.Contains(line, `"request_id"`) {
		t.Fatalf("access log = %q", line)
	}
}

// TestPprofGate: /debug/pprof is 404 by default and mounted when enabled.
func TestPprofGate(t *testing.T) {
	srv := httptest.NewServer(New(Config{}))
	resp, err := http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	srv.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("pprof without opt-in: status = %d", resp.StatusCode)
	}

	srv = httptest.NewServer(New(Config{EnablePprof: true}))
	defer srv.Close()
	resp, err = http.Get(srv.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("pprof with opt-in: status = %d", resp.StatusCode)
	}
}
