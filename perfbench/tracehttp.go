package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync/atomic"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/server"
)

// traceReplays is how many open-loop requests the in-process phase of a
// traced HTTP run replays.
const traceReplays = 300

// traceHTTP is the traced run of a diagnose_* workload, in two phases.
//
//  1. Out of process, untraced: the open loop at the workload's rate for
//     half the run, for the generator's own figures, the client round trip
//     and the registry's hit ratio.
//  2. In process: the first open-loop requests replayed one at a time
//     through server.Service.Handler().ServeHTTP (serve's defaults), each
//     followed by the library calls the handler makes, on the same decoded
//     inputs, with a span around each. The stage spans are re-executions
//     recorded as children of the handler span, so the handler's self time
//     is the part no stage accounts for: wire decode, registry hashing,
//     token parsing, encode and middleware. A second service receives the
//     same requests without spans; the ratio of the two handler times is
//     the tracing overhead.
func traceHTTP(opt options) (outcome, error) {
	openFor := opt.seconds / 2
	s, err := buildStream(opt.workload, opt.seed, openFor, warmup)
	if err != nil {
		return outcome{}, err
	}
	c := newChecker(len(s.targets))
	var t tally
	var l layers

	// Phase 1.
	srv, err := startServer(opt.server)
	if err != nil {
		return outcome{}, err
	}
	defer srv.stop()
	conns := newConns(srv.url, runtime.NumCPU())
	defer closeConns(conns)
	var cursor atomic.Int64
	warm := closedLoop(conns, s, &cursor, warmup)
	before, err := scrape(srv.url)
	if err != nil {
		return outcome{}, err
	}
	open := openLoop(conns, s, s.open)
	after, err := scrape(srv.url)
	if err != nil {
		return outcome{}, err
	}
	srv.stop()
	t.add(c, s, warm)
	t.add(c, s, open)
	var lat, late, wait []float64
	var roundTrip time.Duration
	for _, smp := range open {
		lat = append(lat, ms(smp.latency()))
		late = append(late, ms(smp.lateness()))
		wait = append(wait, ms(smp.connWait()))
		roundTrip += smp.roundTrip()
	}
	l.latencyP50 = quantile(lat, 0.5)
	l.latencyP90 = quantile(lat, 0.9)
	l.latenessP99 = quantile(late, 0.99)
	l.connWaitP50 = quantile(wait, 0.5)
	hits := after[metricRegistryHits] - before[metricRegistryHits]
	misses := after[metricRegistryMisses] - before[metricRegistryMisses]
	l.hitRatio = hits / (hits + misses)
	// The server's own timing of the same requests, so the round trip
	// contains it and the transport time cannot read below zero.
	served := (after[metricHTTPLatencySum] - before[metricHTTPLatencySum]) /
		(after[metricHTTPLatencyCount] - before[metricHTTPLatencyCount])

	// Phase 2.
	traced, err := newInProcess()
	if err != nil {
		return outcome{}, err
	}
	plain, err := newInProcess()
	if err != nil {
		return outcome{}, err
	}
	for i := 0; i < len(warm); i++ {
		body := s.bodies[s.closed[i%len(s.closed)]]
		traced.serve(body)
		plain.serve(body)
	}
	rec := newRecorder()
	libReg := obs.New()
	core.RegisterMetrics(libReg)
	ports.RegisterMetrics(libReg)
	var counts diagCounts
	var plainTime time.Duration
	n := min(traceReplays, len(s.open))
	for i := 0; i < n; i++ {
		req := s.open[i].req
		body := s.bodies[req]
		t.attempted++

		misses0 := traced.misses.Value()
		hreq, rr := newCall(body)
		hid := rec.begin("server.handler", 0, i)
		traced.handler.ServeHTTP(rr, hreq)
		rec.end(hid)
		handlerMisses := traced.misses.Value() - misses0
		hreq, prr := newCall(body)
		start := time.Now()
		plain.handler.ServeHTTP(prr, hreq)
		plainTime += time.Since(start)

		if _, err := c.verify(req, body, rr.Code, rr.Body.Bytes()); err != nil {
			t.fail(fmt.Sprintf("in-process %s mutant %d: %v", s.targets[req.target].name, req.fault, err))
			continue
		}
		d := c.targets[req.target]
		var wr wireRequest
		if err := json.Unmarshal(body, &wr); err != nil {
			return outcome{}, err
		}
		// The handler parses and hashes only the documents its registry
		// missed. The IUT is the document that changes between requests, so
		// a single miss is charged to it.
		parse := func(doc []byte, charged bool) (*cfsm.System, error) {
			if !charged {
				return cfsm.ParseSystem(doc)
			}
			id := rec.begin("cfsm.parse", hid, i)
			sys, err := cfsm.ParseSystem(doc)
			rec.end(id)
			if err != nil {
				return nil, err
			}
			id = rec.begin("compiled.model_hash", hid, i)
			compiled.ModelHash(sys)
			rec.end(id)
			return sys, nil
		}
		if _, err := parse(wr.Spec, handlerMisses >= 2); err != nil {
			return outcome{}, err
		}
		iut, err := parse(wr.IUT, handlerMisses >= 1)
		if err != nil {
			return outcome{}, err
		}

		oracle := &core.SystemOracle{Sys: iut}
		id := rec.begin("core.suite_run", hid, i)
		observed := make([][]cfsm.Observation, len(d.suite))
		for k, tc := range d.suite {
			if observed[k], err = oracle.Execute(tc); err != nil {
				return outcome{}, err
			}
		}
		rec.end(id)
		opts := []core.Option{core.WithRegistry(libReg)}
		var a *core.Analysis
		var loc *core.Localization
		var step6 *timedOracle
		if d.hasPorts {
			popts := []ports.Option{ports.WithCoreOptions(opts...), ports.WithRegistry(libReg)}
			id = rec.begin("ports.analyze", hid, i)
			a, _, err = ports.AnalyzeObserved(d.spec, d.suite, observed, d.pm, popts...)
			rec.end(id)
			if err != nil {
				return outcome{}, err
			}
			id = rec.begin("ports.step6", hid, i)
			step6 = &timedOracle{inner: oracle, rec: rec, name: "ports.step6_oracle", parent: id, req: i}
			loc, _, err = ports.LocalizeContext(context.Background(), a, step6, d.pm, popts...)
			rec.end(id)
		} else {
			id = rec.begin("core.analyze", hid, i)
			a, err = core.Analyze(d.spec, d.suite, observed, opts...)
			rec.end(id)
			if err != nil {
				return outcome{}, err
			}
			id = rec.begin("core.step6", hid, i)
			step6 = &timedOracle{inner: oracle, rec: rec, name: "core.step6_oracle", parent: id, req: i}
			loc, err = core.LocalizeContext(context.Background(), a, step6, opts...)
			rec.end(id)
		}
		if err != nil {
			return outcome{}, err
		}
		counts.add(loc, a, step6.calls)
	}
	if err := rec.write(spanFile(opt)); err != nil {
		return outcome{}, err
	}

	total, self := rec.times()
	per := func(d time.Duration) float64 { return us(d) / float64(n) }
	l.handler = per(total["server.handler"])
	l.stageShare = 1 - self["server.handler"].Seconds()/total["server.handler"].Seconds()
	l.transport = us(roundTrip)/float64(len(open)) - served*1e6
	l.parse = per(total["cfsm.parse"])
	l.modelHash = per(total["compiled.model_hash"])
	l.suiteRun = per(total["core.suite_run"])
	l.analyze = per(total["core.analyze"])
	l.step6Search = per(self["core.step6"])
	l.step6Oracle = per(total["core.step6_oracle"])
	l.portsAnalyze = per(total["ports.analyze"])
	l.portsSearch = per(self["ports.step6"])
	l.portsOracle = per(total["ports.step6_oracle"])
	counts.fill(&l)
	l.overheadRatio = total["server.handler"].Seconds() / plainTime.Seconds()
	l.spans = float64(len(rec.spans))
	return outcome{
		res: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: l.metrics()},
		details: map[string]any{
			"open_samples":         len(open),
			"replayed":             n,
			"detected":             counts.detected,
			"client_round_trip_us": us(roundTrip) / float64(len(open)),
			"span_file":            spanFile(opt),
			"failures":             t.errors,
		},
	}, nil
}

// inProcess is a server.Service configured as `cfsmdiag serve` configures
// it, called without a network.
type inProcess struct {
	handler http.Handler
	misses  *obs.Counter
}

func newInProcess() (*inProcess, error) {
	reg := obs.New()
	svc, err := server.NewService(server.Config{
		Registry:            reg,
		RequestTimeout:      time.Minute,
		EnableTracing:       true,
		InstrumentSimulator: true,
	})
	if err != nil {
		return nil, err
	}
	return &inProcess{handler: svc.Handler(), misses: reg.Counter(metricRegistryMisses, "")}, nil
}

// serve sends one diagnosis request through the handler.
func (p *inProcess) serve(body []byte) {
	req, rr := newCall(body)
	p.handler.ServeHTTP(rr, req)
}

// newCall builds a diagnosis request and a recorder for its response.
func newCall(body []byte) (*http.Request, *httptest.ResponseRecorder) {
	req := httptest.NewRequest(http.MethodPost, "/v1/diagnose", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	return req, httptest.NewRecorder()
}
