package core

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/trace"
)

// Metric families of the diagnosis pipeline. Each name maps to a quantity of
// the paper: oracle queries are the number of diagnostic tests (the paper's
// cost currency), round candidates track the Diag_i refinement shrinkage,
// and verdicts classify Step-6 outcomes.
const (
	metricOracleQueries   = "cfsmdiag_oracle_queries_total"
	metricOracleInputs    = "cfsmdiag_oracle_inputs_total"
	metricAnalyses        = "cfsmdiag_analyses_total"
	metricSymptoms        = "cfsmdiag_symptoms_total"
	metricDiagnosisSize   = "cfsmdiag_analysis_diagnoses"
	metricConflictSize    = "cfsmdiag_analysis_conflict_size"
	metricRoundCandidates = "cfsmdiag_localize_round_candidates"
	metricRounds          = "cfsmdiag_localize_rounds"
	metricAdditionalTests = "cfsmdiag_localize_additional_tests"
	metricVerdicts        = "cfsmdiag_localize_verdicts_total"
	metricEscalations     = "cfsmdiag_localize_escalations_total"
	metricUnreliable      = "cfsmdiag_localize_unreliable_observations_total"

	helpVerdicts    = "Step-6 localization verdicts."
	helpEscalations = "Hypothesis-space escalations during localization."
)

// instruments is the pipeline's single instrumentation stream. Each method
// is one pipeline moment: it updates the metric handles and, only when the
// tracer is enabled, formats attributes and emits the matching trace event,
// so metric totals and trace event counts agree by construction. Every
// handle is nil-safe, so the zero value (observability and tracing off)
// costs a pointer test per site.
type instruments struct {
	reg             *obs.Registry // for label-dependent series (verdicts, escalations)
	tr              *trace.Tracer
	oracleQueries   *obs.Counter
	oracleInputs    *obs.Counter
	analyses        *obs.Counter
	symptoms        *obs.Counter
	diagnosisSize   *obs.Histogram
	conflictSize    *obs.Histogram
	roundCandidates *obs.Histogram
	rounds          *obs.Histogram
	additionalTests *obs.Histogram
	unreliable      *obs.Counter

	roundsBegun int // localize.round spans of the current localization
}

func newInstruments(r *obs.Registry, tr *trace.Tracer) instruments {
	if r == nil {
		return instruments{tr: tr}
	}
	return instruments{
		reg:             r,
		tr:              tr,
		oracleQueries:   r.Counter(metricOracleQueries, "Test cases executed against the implementation-under-test oracle (the paper's number of diagnostic tests)."),
		oracleInputs:    r.Counter(metricOracleInputs, "Inputs applied through the oracle across all executed test cases."),
		analyses:        r.Counter(metricAnalyses, "Step 1-5 analyses performed."),
		symptoms:        r.Counter(metricSymptoms, "Symptoms (expected/observed output differences) found by Step 3."),
		diagnosisSize:   r.Histogram(metricDiagnosisSize, "Surviving fault hypotheses per analysis (size of the Diag set).", obs.DefaultSizeBuckets),
		conflictSize:    r.Histogram(metricConflictSize, "Conflict-set sizes per symptomatic test case (Step 4).", obs.DefaultSizeBuckets),
		roundCandidates: r.Histogram(metricRoundCandidates, "Unresolved candidate transitions at the start of each Step-6 refinement round (the Diag_i shrinkage).", obs.DefaultSizeBuckets),
		rounds:          r.Histogram(metricRounds, "Step-6 refinement rounds per localization.", obs.DefaultSizeBuckets),
		additionalTests: r.Histogram(metricAdditionalTests, "Adaptively generated additional diagnostic tests per localization.", obs.DefaultSizeBuckets),
		unreliable:      r.Counter(metricUnreliable, "Candidates left inconclusive because the oracle's observations were unreliable."),
	}
}

// RegisterMetrics pre-registers the core pipeline's metric families on a
// registry so an exposition endpoint lists them before the first diagnosis
// runs. It is safe to call more than once and a no-op on nil.
func RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	newInstruments(r, nil)
	for v := VerdictNoFault; v <= VerdictInconclusive; v++ {
		r.Counter(metricVerdicts, helpVerdicts, obs.L("verdict", v.label()))
	}
	for _, kind := range []string{"combined", "address"} {
		r.Counter(metricEscalations, helpEscalations, obs.L("kind", kind))
	}
}

// label is the metric-friendly verdict name (String() is prose).
func (v Verdict) label() string {
	switch v {
	case VerdictNoFault:
		return "no_fault"
	case VerdictLocalized:
		return "localized"
	case VerdictAmbiguous:
		return "ambiguous"
	case VerdictInconsistent:
		return "inconsistent"
	case VerdictInconclusive:
		return "inconclusive_observation"
	default:
		return "unknown"
	}
}

func itoa(n int) string { return strconv.Itoa(n) }

// RecordRun emits the replay header into tr: the specification snapshot
// (run.spec), every suite case with its inputs (run.case) and the IUT's
// observed outputs per case (run.observed). A traced DiagnoseContext calls it
// between executing the suite and Analyze, so the header precedes the
// analysis events and the trace replays offline (internal/replay). It is a
// no-op on a nil tracer.
func RecordRun(tr *trace.Tracer, spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation) error {
	if !tr.Enabled() {
		return nil
	}
	if len(observed) != len(suite) {
		return fmt.Errorf("core: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	data, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("core: marshal specification: %w", err)
	}
	tr.Emit(trace.KindRunSpec, trace.A("system", string(data)))
	for i, tc := range suite {
		tr.Emit(trace.KindRunCase,
			trace.A("index", itoa(i)),
			trace.A("name", tc.Name),
			trace.A("inputs", cfsm.FormatInputs(tc.Inputs)))
	}
	for i := range observed {
		tr.Emit(trace.KindRunObserved,
			trace.A("index", itoa(i)),
			trace.A("outputs", cfsm.FormatObs(observed[i])))
	}
	return nil
}

// simCase emits the specification run of one suite case: a sim.case span
// around, per input, a step-clock tick and its sim.step … sim.observe events,
// rendered from the transitions the input executed. obs, steps and err have
// cfsm.System.RunTrace's shape: on err they cover the inputs before the
// failing one. This is the one sim.* emitter; the interpreted reference feeds
// it the runs its analysis simulates, the compiled engine the runs of its
// compiled suite, and only when tracing is on.
func simCase(tr *trace.Tracer, spec *cfsm.System, tc cfsm.TestCase, obs []cfsm.Observation, steps [][]cfsm.Executed, err error) {
	if !tr.Enabled() {
		return
	}
	span := tr.Begin(trace.KindSimCase,
		trace.A("case", tc.Name),
		trace.A("inputs", cfsm.FormatInputs(tc.Inputs)))
	for j, o := range obs {
		tr.Tick()
		simStep(tr, spec, tc.Inputs[j], o, steps[j])
	}
	if err != nil {
		// err wraps the failing step's simulator error with its case and
		// step; the step's event reports the simulator error itself.
		failed := tc.Inputs[len(obs)]
		tr.Tick()
		tr.Emit(trace.KindSimStep, trace.A("input", failed.String()), trace.A("port", itoa(failed.Port+1)))
		tr.Emit(trace.KindSimObserve, trace.A("error", errors.Unwrap(err).Error()))
		span.End(trace.A("error", err.Error()))
		return
	}
	span.End(trace.A("observed", cfsm.FormatObs(obs)))
}

// simStep emits the events of one input that ran: the input, every fired
// transition with the internal message it sent and its delivery, and the
// observation.
func simStep(tr *trace.Tracer, spec *cfsm.System, in cfsm.Input, o cfsm.Observation, ex []cfsm.Executed) {
	observe := func() {
		tr.Emit(trace.KindSimObserve, trace.A("output", o.String()), trace.A("port", itoa(o.Port+1)))
	}
	if in.IsReset() {
		tr.Emit(trace.KindSimStep, trace.A("input", in.String()), trace.A("reset", "true"))
		observe()
		return
	}
	tr.Emit(trace.KindSimStep, trace.A("input", in.String()), trace.A("port", itoa(in.Port+1)))
	for i, e := range ex {
		t := e.Trans
		machine := spec.Machine(e.Machine).Name()
		tr.Emit(trace.KindSimFire,
			trace.A("machine", machine),
			trace.A("transition", t.Name),
			trace.A("from", string(t.From)),
			trace.A("to", string(t.To)),
			trace.A("on", string(t.Input)),
			trace.A("output", string(t.Output)))
		if !t.Internal() {
			continue
		}
		// Under the synchronization assumption the queue holds exactly this
		// message between the send and the (immediate) receive.
		dest := spec.Machine(t.Dest).Name()
		tr.Emit(trace.KindSimSend,
			trace.A("from", machine),
			trace.A("to", dest),
			trace.A("message", string(t.Output)),
			trace.A("queue", "["+string(t.Output)+"]"))
		recv := []trace.KV{
			trace.A("machine", dest),
			trace.A("message", string(t.Output)),
			trace.A("queue", "[]"),
		}
		if i+1 >= len(ex) {
			// The receiver had no transition for the symbol in its current
			// state: the message is consumed silently.
			recv = append(recv, trace.A("undefined", "true"))
		}
		tr.Emit(trace.KindSimRecv, recv...)
	}
	observe()
}

// analyzeBegin opens the analyze span that analyzed closes.
func (in *instruments) analyzeBegin(cases int) trace.Span {
	if !in.tr.Enabled() {
		return trace.Span{}
	}
	return in.tr.Begin(trace.KindAnalyze, trace.A("cases", itoa(cases)))
}

// analyzed records a finished Steps 1–5 analysis: symptom, conflict-set and
// diagnosis counts, and the Step 3–5C events (symptoms, unique symptom
// transition, conflict sets, candidate split, verified hypotheses and
// diagnoses) before closing the analyze span.
func (in *instruments) analyzed(a *Analysis, span trace.Span) {
	in.analyses.Inc()
	in.symptoms.Add(int64(len(a.Symptoms)))
	for _, sets := range a.Conflicts {
		size := 0
		for _, refs := range sets {
			size += len(refs)
		}
		in.conflictSize.ObserveInt(size)
	}
	in.diagnosisSize.ObserveInt(len(a.Diagnoses))
	if !in.tr.Enabled() {
		return
	}
	tr := in.tr
	for _, s := range a.Symptoms {
		attrs := []trace.KV{
			trace.A("case", a.Suite[s.Case].Name),
			trace.A("step", itoa(s.Step+1)),
			trace.A("expected", s.Expected.String()),
			trace.A("observed", s.Observed.String()),
		}
		if s.Transition != nil {
			attrs = append(attrs, trace.A("transition", a.Spec.RefString(*s.Transition)))
		}
		tr.Emit(trace.KindSymptom, attrs...)
	}
	if a.UST != nil {
		tr.Emit(trace.KindUST,
			trace.A("transition", a.Spec.RefString(*a.UST)),
			trace.A("observed_output", string(a.USO)),
			trace.A("flag", strconv.FormatBool(a.Flag)))
	}
	if a.HasSymptoms() {
		var cases []int
		for i := range a.Conflicts {
			cases = append(cases, i)
		}
		sort.Ints(cases)
		for _, i := range cases {
			tr.Emit(trace.KindConflictSet,
				trace.A("case", a.Suite[i].Name),
				trace.A("sets", FormatSets("Conf", a.Conflicts[i])))
		}
		tr.Emit(trace.KindConflictSet, trace.A("case", "*"), trace.A("sets", FormatSets("ITC", a.ITC)))
		tr.Emit(trace.KindCandidateSplit,
			trace.A("ustset", refNames(a.UstSet)),
			trace.A("ftctr", FormatSets("FTCtr", a.FTCtr)),
			trace.A("ftcco", FormatSets("FTCco", a.FTCco)))
		for _, r := range sortedRefs(a.EndStates) {
			tr.Emit(trace.KindHypothesis, trace.A("transition", a.Spec.RefString(r)),
				trace.A("kind", "transfer"), trace.A("end_states", formatStates(a.EndStates[r])))
		}
		for _, r := range sortedSymRefs(a.Outputs) {
			tr.Emit(trace.KindHypothesis, trace.A("transition", a.Spec.RefString(r)),
				trace.A("kind", "output"), trace.A("outputs", formatSymbols(a.Outputs[r])))
		}
		for _, r := range sortedSORefs(a.StatOut) {
			tr.Emit(trace.KindHypothesis, trace.A("transition", a.Spec.RefString(r)),
				trace.A("kind", "combined"), trace.A("statout", formatStateOutputs(a.StatOut[r])))
		}
		for i, d := range a.Diagnoses {
			tr.Emit(trace.KindDiagnosis, trace.A("index", itoa(i+1)), trace.A("fault", d.Describe(a.Spec)))
		}
	}
	span.End(trace.A("symptoms", itoa(len(a.Symptoms))), trace.A("diagnoses", itoa(len(a.Diagnoses))))
}

// roundBegin opens a Step-6 refinement round over the pending candidates.
func (in *instruments) roundBegin(round, candidates int) trace.Span {
	in.roundsBegun++
	in.roundCandidates.ObserveInt(candidates)
	if !in.tr.Enabled() {
		return trace.Span{}
	}
	return in.tr.Begin(trace.KindRound, trace.A("round", itoa(round)), trace.A("candidates", itoa(candidates)))
}

// candidateBegin opens the span of one candidate transition under test.
func (in *instruments) candidateBegin(a *Analysis, ref cfsm.Ref, hypotheses int) trace.Span {
	if !in.tr.Enabled() {
		return trace.Span{}
	}
	return in.tr.Begin(trace.KindCandidate,
		trace.A("target", a.Spec.RefString(ref)), trace.A("hypotheses", itoa(hypotheses)))
}

// testExecuted records one additional diagnostic test: with err nil, the
// test with the oracle's answer and one localize.eliminate event per refuted
// variant; with an unreliable-observation err, the failed test (replay
// reproduces the inconclusive outcome from it).
func (in *instruments) testExecuted(a *Analysis, at AdditionalTest, elims []elimination, err error) {
	if !in.tr.Enabled() {
		return
	}
	target := a.Spec.RefString(at.Target)
	if err != nil {
		in.tr.Emit(trace.KindTest,
			trace.A("name", at.Test.Name),
			trace.A("target", target),
			trace.A("inputs", cfsm.FormatInputs(at.Test.Inputs)),
			trace.A("unreliable", "true"),
			trace.A("error", err.Error()))
		return
	}
	in.tr.Emit(trace.KindTest,
		trace.A("name", at.Test.Name),
		trace.A("target", target),
		trace.A("inputs", cfsm.FormatInputs(at.Test.Inputs)),
		trace.A("expected", cfsm.FormatObs(at.Expected)),
		trace.A("observed", cfsm.FormatObs(at.Observed)),
		trace.A("eliminated", itoa(len(elims))))
	for _, el := range elims {
		in.tr.Emit(trace.KindEliminate,
			trace.A("test", at.Test.Name),
			trace.A("target", target),
			trace.A("hypothesis", el.describe(a)),
			trace.A("reason", el.reason))
	}
}

// candidateResolved records how a candidate left the refinement round and
// closes its span.
func (in *instruments) candidateResolved(a *Analysis, ref cfsm.Ref, o candidateOutcome, span trace.Span) {
	outcome := o.label()
	if o.inconclusive {
		in.unreliable.Inc()
	}
	if !in.tr.Enabled() {
		return
	}
	target := trace.A("target", a.Spec.RefString(ref))
	switch {
	case o.localized != nil:
		in.tr.Emit(trace.KindResolved, target, trace.A("outcome", outcome), trace.A("fault", o.localized.Describe(a.Spec)))
	case o.cleared:
		in.tr.Emit(trace.KindResolved, target, trace.A("outcome", outcome))
	case o.inconclusive:
		in.tr.Emit(trace.KindInconclusive, target, trace.A("remaining", itoa(len(o.remaining))))
	default:
		in.tr.Emit(trace.KindResolved, target, trace.A("outcome", outcome), trace.A("remaining", itoa(len(o.remaining))))
	}
	span.End(trace.A("outcome", outcome))
}

// escalated records a hypothesis-space escalation ("combined" or "address")
// and the number of diagnoses after it.
func (in *instruments) escalated(kind string, diagnoses int) {
	if in.reg != nil {
		in.reg.Counter(metricEscalations, helpEscalations, obs.L("kind", kind)).Inc()
	}
	if in.tr.Enabled() {
		in.tr.Emit(trace.KindEscalation, trace.A("tier", kind), trace.A("diagnoses", itoa(diagnoses)))
	}
}

// verdict records a finished localization: its verdict, adaptive-test cost
// and refinement rounds across every escalation retry.
func (in *instruments) verdict(loc *Localization) {
	if in.reg != nil {
		in.reg.Counter(metricVerdicts, helpVerdicts, obs.L("verdict", loc.Verdict.label())).Inc()
	}
	in.additionalTests.ObserveInt(len(loc.AdditionalTests))
	in.rounds.ObserveInt(in.roundsBegun)
	if !in.tr.Enabled() {
		return
	}
	cleared := make([]string, len(loc.Cleared))
	for i, r := range loc.Cleared {
		cleared[i] = loc.Analysis.Spec.RefString(r)
	}
	attrs := []trace.KV{
		trace.A("verdict", loc.Verdict.String()),
		trace.A("cleared", strings.Join(cleared, ", ")),
		trace.A("additional_tests", itoa(len(loc.AdditionalTests))),
	}
	if loc.Fault != nil {
		attrs = append(attrs, trace.A("fault", loc.Fault.Describe(loc.Analysis.Spec)))
	}
	if len(loc.Remaining) > 0 {
		attrs = append(attrs, trace.A("remaining", itoa(len(loc.Remaining))))
	}
	if len(loc.Inconclusive) > 0 {
		attrs = append(attrs, trace.A("inconclusive", itoa(len(loc.Inconclusive))))
	}
	in.tr.Emit(trace.KindVerdict, attrs...)
}

// obsOracle decorates an Oracle with context enforcement and query counting.
// It checks the context before every execution so a canceled request stops
// the adaptive loop at the next oracle boundary, and routes through
// ExecuteContext when the wrapped oracle supports it.
type obsOracle struct {
	inner   Oracle
	ctx     context.Context
	queries *obs.Counter
	inputs  *obs.Counter
}

func (o obsOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	if err := o.ctx.Err(); err != nil {
		return nil, err
	}
	o.queries.Inc()
	o.inputs.Add(int64(len(tc.Inputs)))
	if co, ok := o.inner.(ContextOracle); ok {
		return co.ExecuteContext(o.ctx, tc)
	}
	return o.inner.Execute(tc)
}

// wrapOracle decorates an oracle with context + query counting exactly once;
// an already-wrapped oracle is rebound to the current context instead of
// being double-counted.
func (in *instruments) wrapOracle(o Oracle, ctx context.Context) Oracle {
	if w, ok := o.(obsOracle); ok {
		o = w.inner
	}
	return obsOracle{inner: o, ctx: ctx, queries: in.oracleQueries, inputs: in.oracleInputs}
}
