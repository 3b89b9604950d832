// Package trace provides a dependency-free structured tracer for the
// diagnosis pipeline.
//
// The model is deliberately small: a Tracer collects a flat sequence of
// Events.  An Event is either an instant (Phase "") or one side of a span
// (Phase "B"/"E" with a shared span id).  Every event carries the value of a
// monotonic step clock that the simulator advances once per executed input
// (Tick), so events can be correlated with simulation steps even after
// export.  Attributes are plain string key/value pairs, which keeps the
// package free of imports from the rest of the module — cfsm and core both
// import trace, never the other way around.
//
// A nil *Tracer is a valid no-op: every method checks the receiver so
// instrumented hot paths pay a single pointer test when tracing is off,
// matching the internal/obs pattern.  A Tracer is safe for concurrent use;
// the parallel mutant sweep shares one tracer across workers.
package trace

import "sync"

// Kind identifies what an event describes.  Kinds are namespaced by pipeline
// stage ("sim.", "analyze.", "localize.", ...) so exporters can group them.
type Kind string

// Event kinds emitted by the pipeline.  The mapping to the paper's Steps 1–6
// is documented in EXPERIMENTS.md ("Tracing").
const (
	// Replay header events (recorded once per run by internal/replay).
	KindRunSpec     Kind = "run.spec"     // specification snapshot (JSON)
	KindRunCase     Kind = "run.case"     // one test-suite case (inputs)
	KindRunObserved Kind = "run.observed" // IUT outputs for one case

	// Simulator events (paper Section 2 semantics).
	KindSimCase    Kind = "sim.case"    // span: one test case simulated
	KindSimStep    Kind = "sim.step"    // external input consumed (Steps 1–2)
	KindSimFire    Kind = "sim.fire"    // a transition fired
	KindSimSend    Kind = "sim.send"    // internal message enqueued
	KindSimRecv    Kind = "sim.recv"    // internal message dequeued
	KindSimObserve Kind = "sim.observe" // external output observed

	// Analysis events (paper Steps 3–5).
	KindAnalyze        Kind = "analyze"                 // span: whole analysis
	KindSymptom        Kind = "analyze.symptom"         // Step 3: symptom found
	KindUST            Kind = "analyze.ust"             // unique symptom transition
	KindConflictSet    Kind = "analyze.conflict_set"    // Step 4: C(ot) built
	KindCandidateSplit Kind = "analyze.candidate_split" // Step 5: ITC/ustset/FTCtr/FTCco
	KindHypothesis     Kind = "analyze.hypothesis"      // surviving fault hypothesis
	KindDiagnosis      Kind = "analyze.diagnosis"       // emitted diagnosis

	// Adaptive localization events (paper Step 6).
	KindRound        Kind = "localize.round"        // span: one elimination round
	KindCandidate    Kind = "localize.candidate"    // span: one candidate transition
	KindTest         Kind = "localize.test"         // diagnostic test + oracle answer
	KindEliminate    Kind = "localize.eliminate"    // variant refuted, with reason
	KindResolved     Kind = "localize.resolved"     // candidate cleared/convicted
	KindEscalation   Kind = "localize.escalation"   // budget/strategy escalation
	KindInconclusive Kind = "localize.inconclusive" // candidate left without trusted evidence
	KindVerdict      Kind = "localize.verdict"      // final verdict

	// Resilient-oracle events (internal/resilient): the retry/backoff layer
	// between Step 6 and a flaky implementation under test.
	KindOracleRetry      Kind = "oracle.retry"      // attempt failed, backing off
	KindOracleTimeout    Kind = "oracle.timeout"    // attempt exceeded the per-query timeout
	KindOracleVote       Kind = "oracle.vote"       // repeated executions compared
	KindOracleUnreliable Kind = "oracle.unreliable" // retries/votes exhausted without trust

	// Chaos-injection events (internal/resilient fault injector).
	KindChaosInject Kind = "chaos.inject" // one injected observation fault

	// Distributed-observation events (internal/ports): per-port projection of
	// the observed outputs and the interleaving-consistency match against the
	// specification's expectation.
	KindPortsProject Kind = "ports.project" // one case projected onto its port map
	KindPortsMatch   Kind = "ports.match"   // maximal consistent prefix vs the expectation
	KindPortsClosure Kind = "ports.closure" // bounded interleaving-closure sweep of one case

	// Experiment events.
	KindSweepMutant Kind = "sweep.mutant" // span: traced diagnosis of one mutant

	// Batch-job events (internal/jobs): the durable queue in front of the
	// pipeline.
	KindJobSubmit   Kind = "job.submit"    // job accepted into the queue
	KindJobRun      Kind = "job.run"       // span: one job executing on a worker
	KindJobCacheHit Kind = "job.cache_hit" // duplicate submission answered from the result cache
	KindJobReplay   Kind = "job.replay"    // job re-queued from the WAL after a restart
	KindJobDrain    Kind = "job.drain"     // graceful-shutdown drain of the worker pool
)

// Kinds returns every kind this package emits, in a stable order.  The JSONL
// validator treats any other kind as a schema violation.
func Kinds() []Kind {
	return []Kind{
		KindRunSpec, KindRunCase, KindRunObserved,
		KindSimCase, KindSimStep, KindSimFire, KindSimSend, KindSimRecv, KindSimObserve,
		KindAnalyze, KindSymptom, KindUST, KindConflictSet, KindCandidateSplit,
		KindHypothesis, KindDiagnosis,
		KindRound, KindCandidate, KindTest, KindEliminate, KindResolved,
		KindEscalation, KindInconclusive, KindVerdict,
		KindOracleRetry, KindOracleTimeout, KindOracleVote, KindOracleUnreliable,
		KindChaosInject,
		KindPortsProject, KindPortsMatch, KindPortsClosure,
		KindSweepMutant,
		KindJobSubmit, KindJobRun, KindJobCacheHit, KindJobReplay, KindJobDrain,
	}
}

var knownKinds = func() map[Kind]bool {
	m := make(map[Kind]bool)
	for _, k := range Kinds() {
		m[k] = true
	}
	return m
}()

// KnownKind reports whether k is a kind emitted by this package.
func KnownKind(k Kind) bool { return knownKinds[k] }

// Span phases.  Instant events use the empty phase.
const (
	PhaseBegin = "B"
	PhaseEnd   = "E"
)

// Event is one entry in a trace.  Attrs uses a map so encoding/json emits
// keys in sorted order, keeping exported traces byte-deterministic.
type Event struct {
	Seq   uint64            `json:"seq"`             // 1-based emission order
	Clock uint64            `json:"clock"`           // simulation step clock
	Kind  Kind              `json:"kind"`            // what happened
	Phase string            `json:"phase,omitempty"` // "", "B", or "E"
	Span  uint64            `json:"span,omitempty"`  // span id for B/E pairs
	Attrs map[string]string `json:"attrs,omitempty"` // details
}

// KV is one event attribute.
type KV struct{ K, V string }

// A builds an attribute; shorthand for KV{k, v}.
func A(k, v string) KV { return KV{K: k, V: v} }

// Tracer collects events, without bound.
type Tracer struct {
	mu       sync.Mutex
	events   []Event
	seq      uint64
	clock    uint64
	nextSpan uint64
}

// New returns an empty tracer.
func New() *Tracer { return &Tracer{} }

// Enabled reports whether events will be recorded.  It is safe on nil.
func (t *Tracer) Enabled() bool { return t != nil }

// Tick advances the monotonic step clock.  The simulator calls it once per
// executed input so all events between two ticks share a step number.
func (t *Tracer) Tick() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.clock++
	t.mu.Unlock()
}

func attrMap(attrs []KV) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.K] = a.V
	}
	return m
}

// record appends under the lock.
func (t *Tracer) record(kind Kind, phase string, span uint64, attrs []KV) {
	t.mu.Lock()
	t.seq++
	t.events = append(t.events, Event{Seq: t.seq, Clock: t.clock, Kind: kind, Phase: phase, Span: span, Attrs: attrMap(attrs)})
	t.mu.Unlock()
}

// Emit records an instant event.  Safe on nil.
func (t *Tracer) Emit(kind Kind, attrs ...KV) {
	if t == nil {
		return
	}
	t.record(kind, "", 0, attrs)
}

// Span is an open interval returned by Begin.  The zero Span (from a nil
// tracer) is a no-op.
type Span struct {
	t    *Tracer
	id   uint64
	kind Kind
}

// Begin opens a span and records its "B" event.  Safe on nil.
func (t *Tracer) Begin(kind Kind, attrs ...KV) Span {
	if t == nil {
		return Span{}
	}
	t.mu.Lock()
	t.nextSpan++
	id := t.nextSpan
	t.mu.Unlock()
	t.record(kind, PhaseBegin, id, attrs)
	return Span{t: t, id: id, kind: kind}
}

// End closes the span, recording its "E" event.  Safe on the zero Span and
// idempotent in the sense that calling End on the zero value does nothing.
func (s Span) End(attrs ...KV) {
	if s.t == nil {
		return
	}
	s.t.record(s.kind, PhaseEnd, s.id, attrs)
}

// Events returns a chronological snapshot of the recorded events.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append(make([]Event, 0, len(t.events)), t.events...)
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Reset discards all recorded events and restarts the clocks.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.seq = 0
	t.clock = 0
	t.nextSpan = 0
	t.mu.Unlock()
}

// CountKind returns how many events in evs have the given kind and phase
// ("" matches instants, "B"/"E" span edges).  Replay uses it to compare
// round counts between a recorded and a replayed localization.
func CountKind(evs []Event, kind Kind, phase string) int {
	n := 0
	for _, e := range evs {
		if e.Kind == kind && e.Phase == phase {
			n++
		}
	}
	return n
}
