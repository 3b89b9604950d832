package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/ports"
)

// wireRequest is the part of a /v1/diagnose body the checker decodes.
type wireRequest struct {
	Spec  json.RawMessage   `json:"spec"`
	IUT   json.RawMessage   `json:"iut"`
	Suite []wireCase        `json:"suite"`
	Ports map[string]string `json:"ports"`
}

type wireCase struct {
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
}

// wireResponse is the part of a /v1/diagnose response the checker compares.
type wireResponse struct {
	Verdict          string     `json:"verdict"`
	Fault            string     `json:"fault"`
	Remaining        []string   `json:"remaining"`
	LocallyAmbiguous []string   `json:"locallyAmbiguous"`
	SuiteCases       int        `json:"suiteCases"`
	TotalTests       int        `json:"totalTests"`
	TotalInputs      int        `json:"totalInputs"`
	Ports            *wirePorts `json:"ports"`
}

type wirePorts struct {
	InterleavingsExplored uint64 `json:"interleavingsExplored"`
}

// verdictNoFault is the wire verdict of an undetected mutant.
var verdictNoFault = core.VerdictNoFault.String()

// decoded is a target's specification side, decoded once from the bytes
// the benchmark sends (identical in every request of the target).
type decoded struct {
	spec        *cfsm.System
	suite       []cfsm.TestCase
	suiteInputs int
	pm          ports.Map
	hasPorts    bool
	engine      *compiled.Engine // nil when the spec cannot be packed
}

// checker computes the library's answer for each request and compares the
// server's response with it.
type checker struct {
	targets []decoded
	ready   []bool
	want    map[request]wireResponse
}

func newChecker(n int) *checker {
	return &checker{targets: make([]decoded, n), ready: make([]bool, n), want: make(map[request]wireResponse)}
}

// target decodes (once) the specification side of a request body.
func (c *checker) target(req request, body []byte) (*decoded, *wireRequest, error) {
	var wr wireRequest
	if err := json.Unmarshal(body, &wr); err != nil {
		return nil, nil, fmt.Errorf("decode request: %w", err)
	}
	d := &c.targets[req.target]
	if c.ready[req.target] {
		return d, &wr, nil
	}
	spec, err := cfsm.ParseSystem(wr.Spec)
	if err != nil {
		return nil, nil, fmt.Errorf("spec: %w", err)
	}
	d.spec = spec
	for _, wc := range wr.Suite {
		tc := cfsm.TestCase{Name: wc.Name}
		for _, tok := range wc.Inputs {
			in, err := cfsm.ParseInputToken(tok)
			if err != nil {
				return nil, nil, err
			}
			tc.Inputs = append(tc.Inputs, in)
		}
		d.suite = append(d.suite, tc)
		d.suiteInputs += len(tc.Inputs)
	}
	if len(wr.Ports) > 0 {
		if d.pm, err = ports.FromAssignments(wr.Ports, spec); err != nil {
			return nil, nil, err
		}
		d.hasPorts = !d.pm.Single()
	}
	if eng, err := compiled.NewEngine(spec); err == nil {
		d.engine = eng
	}
	c.ready[req.target] = true
	return d, &wr, nil
}

// expect returns the library's answer for a request: core.Diagnose, or
// ports.Diagnose under a multi-port map. The global reference runs on the
// compiled engine, whose verdicts equal the interpreted ones by contract
// and which is fast enough to check thousands of distinct mutants.
func (c *checker) expect(req request, body []byte) (wireResponse, error) {
	if w, ok := c.want[req]; ok {
		return w, nil
	}
	d, wr, err := c.target(req, body)
	if err != nil {
		return wireResponse{}, err
	}
	iut, err := cfsm.ParseSystem(wr.IUT)
	if err != nil {
		return wireResponse{}, fmt.Errorf("iut: %w", err)
	}
	oracle := &core.SystemOracle{Sys: iut}
	var loc *core.Localization
	var rep *ports.Report
	if d.hasPorts {
		loc, rep, err = ports.Diagnose(d.spec, d.suite, oracle, d.pm)
	} else {
		var opts []core.Option
		if d.engine != nil {
			opts = append(opts, core.WithEngine(d.engine))
		}
		loc, err = core.Diagnose(d.spec, d.suite, oracle, opts...)
	}
	if err != nil {
		return wireResponse{}, fmt.Errorf("reference diagnosis: %w", err)
	}
	w := wireResponse{
		Verdict:     loc.Verdict.String(),
		SuiteCases:  len(d.suite),
		TotalTests:  oracle.Tests,
		TotalInputs: oracle.Inputs,
	}
	if loc.Fault != nil {
		w.Fault = loc.Fault.Describe(d.spec)
	}
	for _, f := range loc.Remaining {
		w.Remaining = append(w.Remaining, f.Describe(d.spec))
	}
	for _, r := range loc.LocallyAmbiguous {
		w.LocallyAmbiguous = append(w.LocallyAmbiguous, d.spec.RefString(r))
	}
	if rep != nil {
		w.Ports = &wirePorts{InterleavingsExplored: rep.InterleavingsExplored}
	}
	c.want[req] = w
	return w, nil
}

// verify decodes one response and compares it with the library's answer.
func (c *checker) verify(req request, body []byte, status int, resp []byte) (wireResponse, error) {
	if status != http.StatusOK {
		return wireResponse{}, fmt.Errorf("status %d: %.200s", status, resp)
	}
	var got wireResponse
	if err := json.Unmarshal(resp, &got); err != nil {
		return wireResponse{}, fmt.Errorf("decode response: %w", err)
	}
	want, err := c.expect(req, body)
	if err != nil {
		return got, err
	}
	switch {
	case got.Verdict != want.Verdict:
		return got, fmt.Errorf("verdict %q, library %q", got.Verdict, want.Verdict)
	case got.Fault != want.Fault:
		return got, fmt.Errorf("fault %q, library %q", got.Fault, want.Fault)
	case !slices.Equal(got.Remaining, want.Remaining):
		return got, fmt.Errorf("remaining %v, library %v", got.Remaining, want.Remaining)
	case !slices.Equal(got.LocallyAmbiguous, want.LocallyAmbiguous):
		return got, fmt.Errorf("locally ambiguous %v, library %v", got.LocallyAmbiguous, want.LocallyAmbiguous)
	case got.SuiteCases != want.SuiteCases || got.TotalTests != want.TotalTests || got.TotalInputs != want.TotalInputs:
		return got, fmt.Errorf("cost %d/%d/%d (cases/tests/inputs), library %d/%d/%d",
			got.SuiteCases, got.TotalTests, got.TotalInputs, want.SuiteCases, want.TotalTests, want.TotalInputs)
	case (got.Ports == nil) != (want.Ports == nil) ||
		(got.Ports != nil && got.Ports.InterleavingsExplored != want.Ports.InterleavingsExplored):
		return got, fmt.Errorf("ports report differs from the library's")
	}
	return got, nil
}

// tally checks a batch of samples and accumulates the diagnosis costs.
type tally struct {
	attempted, failed int
	errors            []string // the first few failures
	detected          int
	addlTests         int
	addlInputs        int
	oracleQueries     int // what cfsmdiag_oracle_queries_total should have counted
}

func (t *tally) add(c *checker, s *stream, samples []sample) {
	for _, smp := range samples {
		t.attempted++
		body := s.bodies[smp.req]
		var got wireResponse
		err := smp.err
		if err == nil {
			got, err = c.verify(smp.req, body, smp.status, smp.body)
		}
		if err != nil {
			t.fail(fmt.Sprintf("%s mutant %d: %v", s.targets[smp.req.target].name, smp.req.fault, err))
			continue
		}
		d := c.targets[smp.req.target]
		// A multi-port diagnosis executes its suite outside core's counting
		// oracle wrapper, so only its Step-6 tests reach the counter.
		if d.hasPorts {
			t.oracleQueries += got.TotalTests - got.SuiteCases
		} else {
			t.oracleQueries += got.TotalTests
		}
		if got.Verdict != verdictNoFault {
			t.detected++
			t.addlTests += got.TotalTests - got.SuiteCases
			t.addlInputs += got.TotalInputs - d.suiteInputs
		}
	}
}

// merge folds another tally's checks and costs into t.
func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.errors = append(t.errors, o.errors...)
	t.detected += o.detected
	t.addlTests += o.addlTests
	t.addlInputs += o.addlInputs
	t.oracleQueries += o.oracleQueries
}

func (t *tally) fail(msg string) {
	t.failed++
	if len(t.errors) < 5 {
		t.errors = append(t.errors, msg)
	}
}

// perDetected returns the mean Step-6 tests and inputs per detected
// diagnosis.
func (t *tally) perDetected() (tests, inputs float64) {
	return mean(float64(t.addlTests), t.detected), mean(float64(t.addlInputs), t.detected)
}
