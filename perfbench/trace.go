package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
)

// The traced run attributes time to the repository's modules by timing
// calls into their public functions from the benchmark's own code. Spans
// are kept in memory and written out when the run ends.

// span is one timed call.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // 0 for a root span
	Req    int           `json:"req"`    // the request or mutant it belongs to
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

type recorder struct {
	epoch time.Time
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id.
func (r *recorder) begin(name string, parent, req int) int {
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(r.epoch)})
	return len(r.spans)
}

func (r *recorder) end(id int) { r.spans[id-1].End = time.Since(r.epoch) }

// times returns, per span name, the summed duration and the summed self
// time: a span's duration minus the durations of its children.
func (r *recorder) times() (total, self map[string]time.Duration) {
	total = make(map[string]time.Duration)
	self = make(map[string]time.Duration)
	for _, s := range r.spans {
		d := s.End - s.Start
		total[s.Name] += d
		self[s.Name] += d
		if s.Parent > 0 {
			self[r.spans[s.Parent-1].Name] -= d
		}
	}
	return total, self
}

// write stores the spans as JSON lines.
func (r *recorder) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func spanFile(opt options) string {
	return filepath.Join(opt.outDir, fmt.Sprintf("spans-%s-%d.jsonl", opt.workload.name, opt.seed))
}

// timedOracle records a span around every execution of the wrapped oracle.
type timedOracle struct {
	inner       core.Oracle
	rec         *recorder
	name        string
	parent, req int
	calls       int
}

func (o *timedOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	id := o.rec.begin(o.name, o.parent, o.req)
	obs, err := o.inner.Execute(tc)
	o.rec.end(id)
	o.calls++
	return obs, err
}

// layers is the --trace 1 metric set. Every workload prints all of them;
// a layer its traffic does not reach reads 0.
//
// Shares and overheads are ratios of two positive times, not differences:
// a difference of two separately measured times goes below zero whenever
// the host's noise exceeds it.
type layers struct {
	latencyP50, latencyP90                         float64 // ms
	latenessP99, connWaitP50                       float64 // ms
	handler, transport, stageShare, hitRatio       float64
	parse, modelHash                               float64
	suiteRun, analyze, step6Search, step6Oracle    float64
	step6Tests, candidates, testsPerCandidate      float64
	portsAnalyze, portsSearch, portsOracle         float64
	compile, suite, cAnalyze, cStep6, cOracle      float64
	parallelEfficiency, sweepStageShare, enumerate float64
	overheadRatio, spans                           float64
}

func (l layers) metrics() map[string]metric {
	return map[string]metric{
		"gen.latency_p50_ms":              {l.latencyP50, "ms"},
		"gen.latency_p90_ms":              {l.latencyP90, "ms"},
		"gen.lateness_p99_ms":             {l.latenessP99, "ms"},
		"gen.conn_wait_p50_ms":            {l.connWaitP50, "ms"},
		"server.handler_us":               {l.handler, "us"},
		"server.transport_us":             {l.transport, "us"},
		"server.stage_share":              {l.stageShare, "ratio"},
		"server.registry_hit_ratio":       {l.hitRatio, "ratio"},
		"cfsm.parse_us":                   {l.parse, "us"},
		"compiled.model_hash_us":          {l.modelHash, "us"},
		"core.suite_run_us":               {l.suiteRun, "us"},
		"core.analyze_us":                 {l.analyze, "us"},
		"core.step6_search_us":            {l.step6Search, "us"},
		"core.step6_oracle_us":            {l.step6Oracle, "us"},
		"core.step6_tests":                {l.step6Tests, "count"},
		"core.candidates":                 {l.candidates, "count"},
		"core.tests_per_candidate":        {l.testsPerCandidate, "count"},
		"ports.analyze_us":                {l.portsAnalyze, "us"},
		"ports.step6_search_us":           {l.portsSearch, "us"},
		"ports.step6_oracle_us":           {l.portsOracle, "us"},
		"compiled.compile_us":             {l.compile, "us"},
		"compiled.suite_us":               {l.suite, "us"},
		"compiled.analyze_us":             {l.cAnalyze, "us"},
		"compiled.step6_us":               {l.cStep6, "us"},
		"compiled.oracle_us":              {l.cOracle, "us"},
		"experiments.parallel_efficiency": {l.parallelEfficiency, "ratio"},
		"experiments.stage_share":         {l.sweepStageShare, "ratio"},
		"fault.enumerate_us":              {l.enumerate, "us"},
		"trace.overhead_ratio":            {l.overheadRatio, "ratio"},
		"trace.spans":                     {l.spans, "count"},
	}
}

// diagCounts accumulates Step-6 counts over traced diagnoses.
type diagCounts struct {
	detected, step6Tests, candidates int
}

func (d *diagCounts) add(loc *core.Localization, a *core.Analysis, step6Tests int) {
	if loc.Verdict == core.VerdictNoFault {
		return
	}
	d.detected++
	d.step6Tests += step6Tests
	d.candidates += len(a.Diagnoses)
}

func (d diagCounts) fill(l *layers) {
	l.step6Tests = mean(float64(d.step6Tests), d.detected)
	l.candidates = mean(float64(d.candidates), d.detected)
	l.testsPerCandidate = mean(float64(d.step6Tests), d.candidates)
}
