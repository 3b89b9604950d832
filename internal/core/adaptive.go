package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/trace"
)

// ErrUnreliableObservation signals that an oracle could not produce a
// trustworthy observation for a test case: repeated executions disagreed, or
// every attempt timed out or failed. Oracles hardened against flaky
// implementations (internal/resilient) return errors wrapping this sentinel;
// Step 6 then marks the targeted candidate inconclusive instead of convicting
// or clearing it on corrupted evidence, and the localization finishes with
// VerdictInconclusive rather than an error.
var ErrUnreliableObservation = errors.New("unreliable observation")

// Oracle executes test cases against the implementation under test and
// returns the observed outputs. In a laboratory setting it wraps a mutant
// system (SystemOracle); in the field it would drive the real IUT.
type Oracle interface {
	Execute(tc cfsm.TestCase) ([]cfsm.Observation, error)
}

// SystemOracle is an Oracle backed by a (typically mutated) system. It
// counts the tests and inputs it executes, which the cost experiments (E6)
// report.
type SystemOracle struct {
	Sys    *cfsm.System
	Tests  int
	Inputs int
}

var _ Oracle = (*SystemOracle)(nil)

// Execute runs the test case on the wrapped system.
func (o *SystemOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	o.Tests++
	o.Inputs += len(tc.Inputs)
	return o.Sys.Run(tc)
}

// Verdict is the outcome of a localization.
type Verdict int

// Localization outcomes.
const (
	// VerdictNoFault: the test suite revealed no symptom.
	VerdictNoFault Verdict = iota + 1
	// VerdictLocalized: a single fault hypothesis explains everything and
	// survived all additional diagnostic tests.
	VerdictLocalized
	// VerdictAmbiguous: more than one hypothesis remains and no additional
	// test can separate them under the candidate-avoidance constraint.
	VerdictAmbiguous
	// VerdictInconsistent: the observations cannot be explained by any
	// single-transition fault — the fault-model assumption is violated.
	VerdictInconsistent
	// VerdictInconclusive: one or more candidates could not be resolved
	// because the oracle's observations were unreliable (retries exhausted or
	// repeated executions disagreed); the surviving hypotheses are reported in
	// Remaining and the affected candidates in Inconclusive. Unlike
	// VerdictAmbiguous this is an observation-quality outcome, not an
	// information-theoretic limit: re-running with a healthier IUT (or more
	// votes/retries) may still localize the fault.
	VerdictInconclusive
)

// String names the verdict.
func (v Verdict) String() string {
	switch v {
	case VerdictNoFault:
		return "no fault detected"
	case VerdictLocalized:
		return "fault localized"
	case VerdictAmbiguous:
		return "ambiguous"
	case VerdictInconsistent:
		return "inconsistent with the single-transition fault model"
	case VerdictInconclusive:
		return "inconclusive (unreliable observations)"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// AdditionalTest records one adaptively generated diagnostic test case, the
// candidate it targeted and the outputs the IUT produced (the raw material
// of the paper's Figure 2).
type AdditionalTest struct {
	Target   cfsm.Ref
	Test     cfsm.TestCase
	Expected []cfsm.Observation // the specification's prediction
	Observed []cfsm.Observation
	// Eliminated describes each behavioural variant this test refuted, as
	// "hypothesis — reason" ("specification" names the fault-free variant).
	// It is the evidence chain the explanation report renders.
	Eliminated []string
}

// Localization is the result of Step 6.
type Localization struct {
	Analysis *Analysis
	Verdict  Verdict
	// Fault is the localized fault when Verdict is VerdictLocalized.
	Fault *fault.Fault
	// Remaining holds the hypotheses that survive when the verdict is
	// ambiguous.
	Remaining []fault.Fault
	// Cleared lists candidate transitions proven correct by additional
	// tests, in the order they were cleared.
	Cleared []cfsm.Ref
	// Inconclusive lists candidate transitions whose diagnostic tests never
	// produced a trustworthy observation (see ErrUnreliableObservation); when
	// non-empty and no fault was convicted, Verdict is VerdictInconclusive.
	Inconclusive []cfsm.Ref
	// LocallyAmbiguous lists candidate transitions (observation-matcher runs
	// only) for which a globally distinguishing additional test exists but no
	// test whose difference is visible to the matcher could be found: the
	// surviving hypotheses are separable by an omniscient observer yet not by
	// the distributed ones. The affected hypotheses stay in Remaining.
	LocallyAmbiguous []cfsm.Ref
	// AdditionalTests logs every adaptively generated test.
	AdditionalTests []AdditionalTest
}

// Localize performs Step 6: given the Step 1–5 analysis and an oracle for
// the implementation under test, it generates additional diagnostic tests
// until the fault is localized, the candidates are exhausted, or no further
// test can discriminate.
//
// For each candidate transition T_k (the unique symptom transition first,
// then the remaining candidates in machine order, following the Section 4
// walkthrough), the procedure builds behavioural variants — the
// specification plus one rewired specification per surviving hypothesis of
// T_k — and repeatedly executes tests of the form
//
//	R · transfer-sequence · input(T_k) · distinguishing-suffix
//
// where the transfer sequence and the suffix avoid every other candidate
// transition (the paper's constraint on additional tests). Variants whose
// predictions disagree with the observed outputs are eliminated. If the
// specification variant survives alone the candidate is cleared; if a fault
// variant survives alone the fault is localized and, per the single-fault
// hypothesis, the search stops and remaining diagnoses are discarded.
func Localize(a *Analysis, oracle Oracle, opts ...Option) (*Localization, error) {
	return LocalizeContext(context.Background(), a, oracle, opts...)
}

// localize is the shared body of Localize and LocalizeContext: it wraps the
// oracle with context enforcement and metrics, runs the Step-6 loop and
// records the localization's cost and verdict.
func localize(ctx context.Context, a *Analysis, oracle Oracle, cfg *settings) (*Localization, error) {
	in := newInstruments(cfg.registry, cfg.trace)
	oracle = in.wrapOracle(oracle, ctx)
	if a.eng == nil {
		a.eng = cfg.engineFor(a.Spec)
	}
	loc, err := localizeOnce(ctx, a, oracle, cfg, &in)
	if err != nil {
		return nil, err
	}
	// Before declaring the observations outside the fault model, widen the
	// hypothesis space — first to combined faults (Analysis.EscalateCombined),
	// then to the addressing-fault extension (Analysis.EscalateAddress) —
	// retrying the localization after each successful widening.
	for loc.Verdict == VerdictInconsistent && a.HasSymptoms() {
		widened := false
		switch {
		case cfg.combinedEscalation && !a.Escalated:
			widened = a.EscalateCombined()
			in.escalated("combined", len(a.Diagnoses))
		case cfg.addressEscalation && !a.AddressEscalated:
			widened = a.EscalateAddress()
			in.escalated("address", len(a.Diagnoses))
		default:
			in.verdict(loc)
			return loc, nil
		}
		if !widened {
			continue
		}
		retry, err := localizeOnce(ctx, a, oracle, cfg, &in)
		if err != nil {
			return nil, err
		}
		retry.AdditionalTests = append(loc.AdditionalTests, retry.AdditionalTests...)
		retry.Cleared = append(loc.Cleared, retry.Cleared...)
		loc = retry
	}
	in.verdict(loc)
	return loc, nil
}

func localizeOnce(ctx context.Context, a *Analysis, oracle Oracle, cfg *settings, in *instruments) (*Localization, error) {
	loc := &Localization{Analysis: a}
	if !a.HasSymptoms() {
		loc.Verdict = VerdictNoFault
		return loc, nil
	}
	if len(a.Diagnoses) == 0 {
		loc.Verdict = VerdictInconsistent
		return loc, nil
	}
	// Cases 1–3: a single surviving hypothesis needs no further tests.
	if len(a.Diagnoses) == 1 {
		loc.Verdict = VerdictLocalized
		f := a.Diagnoses[0]
		loc.Fault = &f
		return loc, nil
	}

	// Cases 4–5: group hypotheses by candidate transition and test each
	// candidate in turn. Candidates that cannot be resolved in one pass
	// (e.g. because every path to them runs through another candidate) are
	// retried after later candidates have been cleared, with a smaller
	// avoid set.
	order, byRef := groupDiagnoses(a)
	avoidAll := cfsm.NewRefSet(order...)
	pending := order

	for round, progress := 1, true; progress && len(pending) > 0; round++ {
		progress = false
		rspan := in.roundBegin(round, len(pending))
		var still []cfsm.Ref
		for _, ref := range pending {
			if err := ctx.Err(); err != nil {
				rspan.End(trace.A("error", err.Error()))
				return nil, fmt.Errorf("core: localization aborted: %w", err)
			}
			hyps := byRef[ref]
			cspan := in.candidateBegin(a, ref, len(hyps))
			outcome, err := testCandidate(a, oracle, loc, ref, hyps, avoidAll.Without(ref), cfg, in)
			if err != nil {
				cspan.End(trace.A("error", err.Error()))
				rspan.End()
				return nil, err
			}
			in.candidateResolved(a, ref, outcome, cspan)
			switch {
			case outcome.localized != nil:
				rspan.End()
				loc.Verdict = VerdictLocalized
				loc.Fault = outcome.localized
				return loc, nil
			case outcome.cleared:
				progress = true
				loc.Cleared = append(loc.Cleared, ref)
				delete(avoidAll, ref) // cleared transitions may appear in later tests
			case outcome.inconclusive:
				// The oracle never produced a trustworthy observation for
				// this candidate: neither convict nor clear it. The candidate
				// leaves the refinement loop with its surviving hypotheses
				// intact and the localization ends inconclusive.
				byRef[ref] = outcome.remaining
				loc.Inconclusive = append(loc.Inconclusive, ref)
			default:
				byRef[ref] = outcome.remaining
				if len(outcome.remaining) < len(hyps) {
					progress = true
				}
				still = append(still, ref)
			}
		}
		rspan.End()
		pending = still
	}
	for _, ref := range pending {
		loc.Remaining = append(loc.Remaining, byRef[ref]...)
	}
	for _, ref := range loc.Inconclusive {
		loc.Remaining = append(loc.Remaining, byRef[ref]...)
	}
	if len(loc.Inconclusive) > 0 {
		// Some candidate's evidence is missing, so elimination arguments
		// ("every other candidate cleared") cannot complete: the run is
		// inconclusive rather than localized, ambiguous or inconsistent.
		loc.Verdict = VerdictInconclusive
		return loc, nil
	}

	if len(loc.Remaining) == 0 {
		// Every candidate was cleared, yet symptoms exist: the fault model
		// does not hold.
		loc.Verdict = VerdictInconsistent
		return loc, nil
	}
	if len(loc.Remaining) == 1 {
		loc.Verdict = VerdictLocalized
		f := loc.Remaining[0]
		loc.Fault = &f
		loc.Remaining = nil
		return loc, nil
	}
	loc.Verdict = VerdictAmbiguous
	return loc, nil
}

// groupDiagnoses orders candidate transitions — unique symptom transition
// first, then machine/name order — and groups hypotheses per candidate.
func groupDiagnoses(a *Analysis) ([]cfsm.Ref, map[cfsm.Ref][]fault.Fault) {
	byRef := make(map[cfsm.Ref][]fault.Fault)
	for _, f := range a.Diagnoses {
		byRef[f.Ref] = append(byRef[f.Ref], f)
	}
	var order []cfsm.Ref
	for r := range byRef {
		order = append(order, r)
	}
	sort.Slice(order, func(i, j int) bool {
		ri, rj := order[i], order[j]
		ustI := a.UST != nil && ri == *a.UST
		ustJ := a.UST != nil && rj == *a.UST
		if ustI != ustJ {
			return ustI
		}
		if ri.Machine != rj.Machine {
			return ri.Machine < rj.Machine
		}
		return ri.Name < rj.Name
	})
	return order, byRef
}

// variant pairs a fault hypothesis (nil for the specification itself) with
// the engine-executable handle that realizes it.
type variant struct {
	fault *fault.Fault
	h     variantRunner
}

// candidateOutcome is the result of testing one candidate transition.
type candidateOutcome struct {
	cleared      bool
	localized    *fault.Fault
	inconclusive bool // the oracle's observations were unreliable
	remaining    []fault.Fault
}

// label names the outcome in narration and trace events.
func (o candidateOutcome) label() string {
	switch {
	case o.localized != nil:
		return "convicted"
	case o.cleared:
		return "cleared"
	case o.inconclusive:
		return "inconclusive"
	default:
		return "unresolved"
	}
}

// testCandidate runs the variant-elimination loop for one candidate.
func testCandidate(a *Analysis, oracle Oracle, loc *Localization, ref cfsm.Ref, hyps []fault.Fault, avoid cfsm.RefSet, cfg *settings, in *instruments) (candidateOutcome, error) {
	t, ok := a.Spec.Transition(ref)
	if !ok {
		return candidateOutcome{}, fmt.Errorf("core: candidate %s not in specification", a.Spec.RefString(ref))
	}

	eng := a.engine()
	specVar, err := eng.variant(nil)
	if err != nil {
		return candidateOutcome{}, fmt.Errorf("core: specification variant: %w", err)
	}
	variants := []variant{{fault: nil, h: specVar}}
	for i := range hyps {
		h, err := eng.variant(&hyps[i])
		if err != nil {
			return candidateOutcome{}, fmt.Errorf("core: apply hypothesis %s: %w", hyps[i].Describe(a.Spec), err)
		}
		variants = append(variants, variant{fault: &hyps[i], h: h})
	}

	// Transfer sequence to the candidate's source state, avoiding every
	// candidate transition including the one under test (its behaviour is
	// not yet trusted). The self entry is added in place and removed after
	// the search — TransferToState only reads the set.
	hadSelf := avoid[ref]
	avoid[ref] = true
	transferInputs, ok := eng.transferToState(ref.Machine, t.From, avoid)
	if !hadSelf {
		delete(avoid, ref)
	}
	if !ok {
		// The candidate cannot be exercised without touching another
		// candidate: its hypotheses stay unresolved.
		return candidateOutcome{remaining: hyps}, nil
	}
	prefix := append([]cfsm.Input{cfsm.Reset()}, transferInputs...)
	prefix = append(prefix, cfsm.Input{Port: ref.Machine, Sym: t.Input})

	live := variants
	for len(live) > 1 {
		if cfg.maxAdditionalTests > 0 && len(loc.AdditionalTests) >= cfg.maxAdditionalTests {
			break // test budget exhausted: remaining hypotheses stay open
		}
		test, ok, globalOnly := nextDiscriminatingTest(eng, live, prefix, avoid, cfg.matcher)
		if !ok {
			if globalOnly {
				// Honest degradation for distributed observation: the pair is
				// distinguishable by a global observer but not in projection;
				// record it so reports and metrics can say so instead of
				// silently presenting the ambiguity as information-theoretic.
				loc.LocallyAmbiguous = appendRefOnce(loc.LocallyAmbiguous, ref)
			}
			break
		}
		test.Name = fmt.Sprintf("diag-%s-%d", ref.Name, len(loc.AdditionalTests)+1)
		observed, err := oracle.Execute(test)
		if err != nil {
			if errors.Is(err, ErrUnreliableObservation) {
				// The hardened oracle exhausted its retries or its repeated
				// executions disagreed: the observation cannot be trusted, so
				// no variant may be eliminated on it. The trace records the
				// failed test (replay reproduces the inconclusive outcome
				// from it) and the candidate keeps its surviving hypotheses.
				in.testExecuted(a, AdditionalTest{Target: ref, Test: test}, nil, err)
				var rem []fault.Fault
				for _, v := range live {
					if v.fault != nil {
						rem = append(rem, *v.fault)
					}
				}
				return candidateOutcome{inconclusive: true, remaining: rem}, nil
			}
			return candidateOutcome{}, fmt.Errorf("core: execute %s: %w", test.Name, err)
		}
		expected, err := specVar.Run(test)
		if err != nil {
			return candidateOutcome{}, fmt.Errorf("core: predict %s: %w", test.Name, err)
		}
		var elims []elimination
		live, elims = filterVariants(live, test, observed, cfg.matcher)
		at := AdditionalTest{
			Target:   ref,
			Test:     test,
			Expected: expected,
			Observed: observed,
		}
		for _, el := range elims {
			at.Eliminated = append(at.Eliminated, el.describe(a)+" — "+el.reason)
		}
		loc.AdditionalTests = append(loc.AdditionalTests, at)
		in.testExecuted(a, at, elims, nil)
	}

	switch {
	case len(live) == 0:
		// No hypothesis for this candidate matches the additional
		// observations; the candidate is clear of every hypothesized fault.
		return candidateOutcome{cleared: true}, nil
	case len(live) == 1 && live[0].fault == nil:
		return candidateOutcome{cleared: true}, nil
	case len(live) == 1:
		return candidateOutcome{localized: live[0].fault}, nil
	default:
		var remaining []fault.Fault
		specAlive := false
		for _, v := range live {
			if v.fault == nil {
				specAlive = true
				continue
			}
			remaining = append(remaining, *v.fault)
		}
		if specAlive {
			// The specification itself is still in play: the surviving
			// hypotheses are indistinguishable from "correct", so they
			// cannot be the localized fault on present evidence; keep them
			// as remaining ambiguity.
			return candidateOutcome{remaining: remaining}, nil
		}
		return candidateOutcome{remaining: remaining}, nil
	}
}

// nextDiscriminatingTest builds the next additional diagnostic test for the
// live variants: the fixed prefix, extended — when the prefix alone does not
// already separate some pair — by a distinguishing suffix for the first
// still-separable pair. Observation sequences are compared through the
// matcher when one is installed, and the suffix search then asks for a
// difference visible to local observers, so a test only counts as
// discriminating when the (possibly distributed) observers can see it;
// globalOnly then reports the honest failure mode where some pair remains
// separable by a global observer but not through the matcher.
func nextDiscriminatingTest(eng engine, live []variant, prefix []cfsm.Input, avoid cfsm.RefSet, m ObsMatcher) (tc cfsm.TestCase, ok, globalOnly bool) {
	type run struct {
		at  variantAt
		obs []cfsm.Observation
	}
	runs := make([]run, len(live))
	for i, v := range live {
		obs, cfg, err := v.h.RunInputs(prefix)
		if err != nil {
			return cfsm.TestCase{}, false, false
		}
		runs[i] = run{at: variantAt{v: v.h, cfg: cfg}, obs: obs}
	}
	// If the prefix already separates a pair of variants, it is the test.
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			if !matcherEqual(m, runs[i].obs, runs[j].obs) {
				return cfsm.TestCase{Inputs: append([]cfsm.Input(nil), prefix...)}, true, false
			}
		}
	}
	// Otherwise search for a distinguishing suffix for some pair.
	for i := 0; i < len(live); i++ {
		for j := i + 1; j < len(live); j++ {
			suffix, found, global := eng.distinguish(runs[i].at, runs[j].at, avoid, m != nil)
			if found {
				inputs := append([]cfsm.Input(nil), prefix...)
				inputs = append(inputs, suffix...)
				return cfsm.TestCase{Inputs: inputs}, true, false
			}
			globalOnly = globalOnly || global
		}
	}
	return cfsm.TestCase{}, false, globalOnly
}

// matcherEqual compares two observation sequences through the matcher,
// defaulting to exact equality.
func matcherEqual(m ObsMatcher, a, b []cfsm.Observation) bool {
	if m == nil {
		return cfsm.ObsEqual(a, b)
	}
	return m.Equal(a, b)
}

// appendRefOnce appends ref unless already present (candidates can be
// retried across refinement rounds).
func appendRefOnce(refs []cfsm.Ref, ref cfsm.Ref) []cfsm.Ref {
	for _, r := range refs {
		if r == ref {
			return refs
		}
	}
	return append(refs, ref)
}

// elimination records why one behavioural variant was refuted by a test: the
// hypothesis it realized (nil for the specification) and the first point of
// disagreement between its prediction and the observed outputs.
type elimination struct {
	fault  *fault.Fault
	reason string
}

// describe names the eliminated variant for reports and trace events.
func (el elimination) describe(a *Analysis) string {
	if el.fault == nil {
		return "specification"
	}
	return el.fault.Describe(a.Spec)
}

// filterVariants keeps the variants whose prediction for the test equals the
// observed outputs — through the matcher when one is installed — and reports
// why each dropped variant was eliminated.
func filterVariants(live []variant, test cfsm.TestCase, observed []cfsm.Observation, m ObsMatcher) ([]variant, []elimination) {
	var out []variant
	var elims []elimination
	for _, v := range live {
		predicted, err := v.h.Run(test)
		if err != nil {
			elims = append(elims, elimination{fault: v.fault, reason: "prediction failed: " + err.Error()})
			continue
		}
		if matcherEqual(m, predicted, observed) {
			out = append(out, v)
			continue
		}
		reason := mismatchReason(predicted, observed)
		if m != nil {
			reason = m.Mismatch(predicted, observed)
		}
		elims = append(elims, elimination{fault: v.fault, reason: reason})
	}
	return out, elims
}

// mismatchReason pinpoints the first step where a variant's prediction and
// the IUT's observation diverge (steps are 1-based, as in Table 1).
func mismatchReason(predicted, observed []cfsm.Observation) string {
	n := len(predicted)
	if len(observed) < n {
		n = len(observed)
	}
	for i := 0; i < n; i++ {
		if predicted[i] != observed[i] {
			return fmt.Sprintf("predicted %s at step %d but observed %s", predicted[i], i+1, observed[i])
		}
	}
	return fmt.Sprintf("predicted %d outputs but %d were observed", len(predicted), len(observed))
}

// Diagnose is the end-to-end convenience entry point: it executes the test
// suite against the oracle (Step 2), analyzes the results (Steps 1 and 3–5)
// and localizes the fault (Step 6). See DiagnoseContext for the cancelable
// variant.
func Diagnose(spec *cfsm.System, suite []cfsm.TestCase, oracle Oracle, opts ...Option) (*Localization, error) {
	return DiagnoseContext(context.Background(), spec, suite, oracle, opts...)
}
