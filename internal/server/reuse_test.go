package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/jobs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// TestConcurrentRequestsMatchLibrary: 8 goroutines send /v1/diagnose with and
// without a suite and with and without a port map, /v1/analyze with and
// without one, and diagnose jobs, over three specifications and distinct
// implementations — so pooled engines are rebound across programs and
// interned suites are shared between requests — and every answer equals the
// library's. Run it under -race.
func TestConcurrentRequestsMatchLibrary(t *testing.T) {
	_, srv := newJobsService(t, Config{JobsWorkers: 2})
	type subject struct {
		spec   *cfsm.System
		suite  []cfsm.TestCase
		ports  map[string]string
		faults []fault.Fault
	}
	newSubject := func(spec *cfsm.System, suite []cfsm.TestCase) subject {
		s := subject{spec: spec, suite: suite, ports: map[string]string{}}
		for i := 0; i < spec.N(); i++ {
			s.ports[spec.Machine(i).Name()] = fmt.Sprintf("site-%d", i)
		}
		all := fault.Enumerate(spec)
		for i := 0; i < len(all); i += len(all) / 8 {
			s.faults = append(s.faults, all[i])
		}
		return s
	}
	var subjects []subject
	subjects = append(subjects, newSubject(paper.MustFigure1(), paper.TestSuite()))
	for _, seed := range []int64{2, 13} {
		spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed})
		tour, _ := testgen.Tour(spec, 0)
		subjects = append(subjects, newSubject(spec, tour))
	}

	// request sends one request of the given kind and returns the answer
	// and the library's, both as JSON. It runs off the test goroutine, so
	// it reports failures as errors.
	request := func(s subject, f fault.Fault, kind int) (got, want []byte, err error) {
		iut, err := f.Apply(s.spec)
		if err != nil {
			return nil, nil, err
		}
		var pm ports.Map
		req := diagnoseRequest{Spec: mustJSON(s.spec), IUT: mustJSON(iut), Suite: cfsm.EncodeSuite(s.suite)}
		suite := s.suite
		if kind == 1 {
			req.Suite = nil // the server runs the spec's tour
			suite, _ = testgen.Tour(s.spec, 0)
		}
		if kind == 2 || kind == 4 {
			req.Ports = s.ports
			if pm, err = ports.FromAssignments(s.ports, s.spec); err != nil {
				return nil, nil, err
			}
		}
		var body []byte
		switch kind {
		case 0, 1, 2:
			if body, err = send(srv.URL+"/v1/diagnose", req); err != nil {
				return nil, nil, err
			}
		case 3, 4:
			observed, err := iut.RunSuite(suite)
			if err != nil {
				return nil, nil, err
			}
			areq := analyzeRequest{Spec: req.Spec, Suite: req.Suite, Ports: req.Ports}
			for _, o := range observed {
				areq.Observations = append(areq.Observations, cfsm.EncodeObs(o))
			}
			b, err := send(srv.URL+"/v1/analyze", areq)
			if err != nil {
				return nil, nil, err
			}
			var got analyzeResponse
			if err := json.Unmarshal(b, &got); err != nil {
				return nil, nil, err
			}
			a, rep, err := ports.AnalyzeObserved(s.spec, suite, observed, pm)
			if err != nil {
				return nil, nil, err
			}
			if kind == 3 {
				rep = nil // the classical request carries no ports report
			}
			return mustJSON(got), mustJSON(encodeAnalysis(s.spec, a, rep)), nil
		case 5:
			if body, err = runJob(srv.URL, req); err != nil {
				return nil, nil, err
			}
		}
		var gotResp diagnoseResponse
		if err := json.Unmarshal(body, &gotResp); err != nil {
			return nil, nil, err
		}
		oracle := &core.SystemOracle{Sys: iut}
		loc, rep, err := ports.Diagnose(s.spec, suite, oracle, pm)
		if err != nil {
			return nil, nil, err
		}
		wantResp := encodeLocalization(s.spec, suite, oracle.Tests, oracle.Inputs, loc)
		if req.Ports != nil {
			wantResp.Ports = &portsReportJSON{Observers: rep.Ports, Cases: rep.Cases,
				AmbiguousCases: rep.AmbiguousCases, InterleavingsExplored: rep.InterleavingsExplored}
		}
		return mustJSON(gotResp), mustJSON(wantResp), nil
	}

	const goroutines, perGoroutine = 8, 6
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < perGoroutine; k++ {
				s := subjects[(g+k)%len(subjects)]
				f := s.faults[(g*perGoroutine+k)%len(s.faults)]
				kind := (g + 2*k) % 6
				got, want, err := request(s, f, kind)
				if err != nil {
					t.Errorf("kind %d, %s: %v", kind, f.Describe(s.spec), err)
				} else if !bytes.Equal(got, want) {
					t.Errorf("kind %d, %s: server\n%s\nlibrary\n%s", kind, f.Describe(s.spec), got, want)
				}
			}
		}()
	}
	wg.Wait()
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// send POSTs v as JSON and returns the body of a 200 or 202 answer.
func send(url string, v any) ([]byte, error) {
	resp, err := http.Post(url, "application/json", bytes.NewReader(mustJSON(v)))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err == nil && resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		err = fmt.Errorf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body, err
}

// runJob submits a diagnose job, waits for it and returns its result.
func runJob(base string, req diagnoseRequest) (json.RawMessage, error) {
	// A duplicate submission is answered from the job cache with 200.
	b, err := send(base+"/v1/jobs", jobSubmitRequest{Kind: "diagnose", Request: mustJSON(req)})
	if err != nil {
		return nil, err
	}
	var v jobView
	if err := json.Unmarshal(b, &v); err != nil {
		return nil, err
	}
	for deadline := time.Now().Add(time.Minute); !jobs.State(v.State).Terminal(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("job %s never terminal", v.ID)
		}
		resp, err := http.Get(base + "/v1/jobs/" + v.ID)
		if err != nil {
			return nil, err
		}
		err = json.NewDecoder(resp.Body).Decode(&v)
		resp.Body.Close()
		if err != nil {
			return nil, err
		}
	}
	if v.State != string(jobs.StateSucceeded) {
		return nil, fmt.Errorf("job %s: %s", v.State, v.Error)
	}
	resp, err := http.Get(base + "/v1/jobs/" + v.ID + "/result")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var res jobResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, err
	}
	return res.Result, nil
}
