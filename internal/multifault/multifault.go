// Package multifault extends the diagnosis to a special class of multiple
// faults, the direction the paper's concluding discussion proposes:
// "Another important question is the diagnostics of systems having multiple
// faults … A possible starting point is to try to solve such a question for
// at least some special classes of multiple faults."
//
// The special class implemented here: at most two faulty transitions, each
// carrying a single-transition fault of the paper's model (output, transfer,
// or both). The approach generalizes the paper's candidate generation and
// hypothesis verification:
//
//   - candidate transitions are those the specification executes anywhere in
//     the test suite (a pair's second fault may manifest only after the
//     first symptom, so the per-symptom conflict sets of the single-fault
//     algorithm are widened to the executed set);
//   - every hypothesis — one fault, or an unordered pair of faults on
//     distinct transitions — is verified by rewiring the specification and
//     re-simulating the whole suite against the observations;
//   - surviving hypotheses are discriminated adaptively by variant
//     elimination: repeatedly find an input sequence on which two surviving
//     variants predict different outputs, execute it on the IUT, and drop
//     the variants it contradicts.
//
// Hypothesis.Apply is the one acceptance check of a hypothesis; the system
// it builds is lowered to a compiled variant (compiled.Engine.VariantOf),
// which the suite re-simulation, the distinguishing search and the
// predictions all run on.
package multifault

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
)

// Hypothesis is a set of one or two single-transition faults on distinct
// transitions.
type Hypothesis struct {
	Faults []fault.Fault
}

// Describe renders the hypothesis.
func (h Hypothesis) Describe(spec *cfsm.System) string {
	switch len(h.Faults) {
	case 1:
		return h.Faults[0].Describe(spec)
	case 2:
		return h.Faults[0].Describe(spec) + " AND " + h.Faults[1].Describe(spec)
	default:
		return fmt.Sprintf("invalid hypothesis (%d faults)", len(h.Faults))
	}
}

// Apply injects every fault of the hypothesis into the specification.
func (h Hypothesis) Apply(spec *cfsm.System) (*cfsm.System, error) {
	sys := spec
	for _, f := range h.Faults {
		var err error
		sys, err = applyRaw(sys, f)
		if err != nil {
			return nil, err
		}
	}
	return sys, nil
}

// applyRaw injects one fault without re-checking its alternatives against
// the (already mutated) system's alphabets; the structural model rules are
// still enforced by the rewire.
func applyRaw(sys *cfsm.System, f fault.Fault) (*cfsm.System, error) {
	switch f.Kind {
	case fault.KindOutput:
		return sys.Rewire(f.Ref, f.Output, "")
	case fault.KindTransfer:
		return sys.Rewire(f.Ref, "", f.To)
	case fault.KindBoth:
		return sys.Rewire(f.Ref, f.Output, f.To)
	case fault.KindAddress:
		return sys.RewireAddress(f.Ref, f.Dest)
	default:
		return nil, fmt.Errorf("multifault: invalid fault kind %v", f.Kind)
	}
}

// Options tunes the analysis.
type Options struct {
	// MaxHypotheses caps the number of pair hypotheses examined; 0 means
	// DefaultMaxHypotheses. The cap prevents quadratic blow-ups on large
	// systems; when it is hit, Truncated is set on the analysis.
	MaxHypotheses int
	// IncludeAddress adds the addressing-fault extension to the per-
	// transition fault space.
	IncludeAddress bool
}

// DefaultMaxHypotheses bounds the pair-hypothesis space by default.
const DefaultMaxHypotheses = 250_000

// Analysis is the result of double-fault candidate generation.
type Analysis struct {
	Spec       *cfsm.System
	Suite      []cfsm.TestCase
	Observed   [][]cfsm.Observation
	Symptoms   int
	Candidates []cfsm.Ref // executed transitions, the candidate pool
	// Surviving hypotheses, single faults first.
	Hypotheses []Hypothesis
	// Truncated reports that the hypothesis budget was exhausted.
	Truncated bool
}

// Analyze generates and verifies all hypotheses of the at-most-two-faults
// class against the observations.
func Analyze(spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, opts Options) (*Analysis, error) {
	if len(observed) != len(suite) {
		return nil, fmt.Errorf("multifault: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	maxHyp := opts.MaxHypotheses
	if maxHyp <= 0 {
		maxHyp = DefaultMaxHypotheses
	}
	a := &Analysis{Spec: spec, Suite: suite, Observed: observed}

	// Symptom count and executed-transition pool.
	seen := make(map[cfsm.Ref]bool)
	for i, tc := range suite {
		expected, steps, err := spec.RunTrace(tc)
		if err != nil {
			return nil, fmt.Errorf("multifault: simulate %s: %w", tc.Name, err)
		}
		if len(observed[i]) != len(expected) {
			return nil, fmt.Errorf("multifault: %s: %d observations for %d inputs", tc.Name, len(observed[i]), len(expected))
		}
		for j := range expected {
			if expected[j] != observed[i][j] {
				a.Symptoms++
			}
		}
		for _, ex := range steps {
			for _, e := range ex {
				r := e.Ref()
				if !seen[r] {
					seen[r] = true
					a.Candidates = append(a.Candidates, r)
				}
			}
		}
	}
	if a.Symptoms == 0 {
		return a, nil
	}

	// Per-transition single-fault spaces, restricted to the candidate pool.
	perRef := make(map[cfsm.Ref][]fault.Fault, len(a.Candidates))
	for _, f := range fault.Enumerate(spec) {
		if seen[f.Ref] {
			perRef[f.Ref] = append(perRef[f.Ref], f)
		}
	}
	if opts.IncludeAddress {
		for _, f := range fault.EnumerateAddress(spec) {
			if seen[f.Ref] {
				perRef[f.Ref] = append(perRef[f.Ref], f)
			}
		}
	}

	eng, err := compiled.NewEngine(spec)
	if err != nil {
		return nil, err
	}
	defer eng.Release()
	explains := func(h Hypothesis) bool {
		v, ok := variant(eng, h)
		return ok && v.Explains(suite, observed)
	}

	// Single-fault hypotheses first (the class includes them).
	for _, r := range a.Candidates {
		for _, f := range perRef[r] {
			h := Hypothesis{Faults: []fault.Fault{f}}
			if explains(h) {
				a.Hypotheses = append(a.Hypotheses, h)
			}
		}
	}

	// Unordered pairs on distinct transitions.
	examined := 0
	for i := 0; i < len(a.Candidates) && !a.Truncated; i++ {
		for j := i + 1; j < len(a.Candidates) && !a.Truncated; j++ {
			for _, f1 := range perRef[a.Candidates[i]] {
				for _, f2 := range perRef[a.Candidates[j]] {
					examined++
					if examined > maxHyp {
						a.Truncated = true
						break
					}
					h := Hypothesis{Faults: []fault.Fault{f1, f2}}
					if explains(h) {
						a.Hypotheses = append(a.Hypotheses, h)
					}
				}
				if a.Truncated {
					break
				}
			}
		}
	}
	return a, nil
}

// Localization is the adaptive outcome.
type Localization struct {
	Analysis        *Analysis
	Verdict         core.Verdict
	Localized       *Hypothesis
	Remaining       []Hypothesis
	AdditionalTests []cfsm.TestCase
}

// variant lowers the system Hypothesis.Apply builds for h onto the engine's
// tables; ok is false when Apply rejects the hypothesis (or, for a
// hypothesis not drawn from the specification's fault space, when the
// system uses an output symbol the specification does not).
func variant(eng *compiled.Engine, h Hypothesis) (compiled.Variant, bool) {
	sys, err := h.Apply(eng.Program().System())
	if err != nil {
		return compiled.Variant{}, false
	}
	v, err := eng.VariantOf(sys)
	return v, err == nil
}

// Localize discriminates the surviving hypotheses by variant elimination
// against the oracle.
func Localize(a *Analysis, oracle core.Oracle) (*Localization, error) {
	loc := &Localization{Analysis: a}
	if a.Symptoms == 0 {
		loc.Verdict = core.VerdictNoFault
		return loc, nil
	}
	if len(a.Hypotheses) == 0 {
		loc.Verdict = core.VerdictInconsistent
		return loc, nil
	}

	eng, err := compiled.NewEngine(a.Spec)
	if err != nil {
		return nil, err
	}
	defer eng.Release()
	type variantT struct {
		hyp *Hypothesis
		v   compiled.Variant
	}
	spec, _ := eng.Variant(nil)
	_, start, _ := spec.RunInputs(nil)
	live := []variantT{{hyp: nil, v: spec}}
	for i := range a.Hypotheses {
		if v, ok := variant(eng, a.Hypotheses[i]); ok {
			live = append(live, variantT{hyp: &a.Hypotheses[i], v: v})
		}
	}

	// The spec variant contradicts the observed symptoms by construction,
	// but keeping it makes the elimination uniform: each test removes at
	// least one variant.
	for len(live) > 1 {
		// Find a distinguishing test for some live pair.
		var test *cfsm.TestCase
		for i := 0; i < len(live) && test == nil; i++ {
			for j := i + 1; j < len(live); j++ {
				seq, ok, _ := eng.Distinguish(live[i].v, start, live[j].v, start, nil, false)
				if !ok {
					continue
				}
				test = &cfsm.TestCase{
					Name:   fmt.Sprintf("multidiag-%d", len(loc.AdditionalTests)+1),
					Inputs: append([]cfsm.Input{cfsm.Reset()}, seq...),
				}
				break
			}
		}
		if test == nil {
			break // pairwise indistinguishable
		}
		observed, err := oracle.Execute(*test)
		if err != nil {
			return nil, fmt.Errorf("multifault: execute %s: %w", test.Name, err)
		}
		loc.AdditionalTests = append(loc.AdditionalTests, *test)
		var next []variantT
		for _, v := range live {
			predicted, err := v.v.Run(*test)
			if err != nil {
				continue
			}
			if cfsm.ObsEqual(predicted, observed) {
				next = append(next, v)
			}
		}
		live = next
	}

	switch {
	case len(live) == 0:
		loc.Verdict = core.VerdictInconsistent
	case len(live) == 1 && live[0].hyp == nil:
		// Only the specification survives, yet there were symptoms.
		loc.Verdict = core.VerdictInconsistent
	case len(live) == 1:
		loc.Verdict = core.VerdictLocalized
		loc.Localized = live[0].hyp
	default:
		loc.Verdict = core.VerdictAmbiguous
		for _, v := range live {
			if v.hyp != nil {
				loc.Remaining = append(loc.Remaining, *v.hyp)
			}
		}
	}
	return loc, nil
}

// Diagnose is the end-to-end entry point for the at-most-two-faults class.
func Diagnose(spec *cfsm.System, suite []cfsm.TestCase, oracle core.Oracle, opts Options) (*Localization, error) {
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := oracle.Execute(tc)
		if err != nil {
			return nil, fmt.Errorf("multifault: execute %s: %w", tc.Name, err)
		}
		observed[i] = obs
	}
	a, err := Analyze(spec, suite, observed, opts)
	if err != nil {
		return nil, err
	}
	return Localize(a, oracle)
}
