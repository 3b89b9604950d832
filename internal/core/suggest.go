package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
)

// PlannedTest is an additional diagnostic test proposed for offline
// execution: the test case, the candidate transition it targets, and the
// outputs each live hypothesis (including the specification) predicts, so
// that whoever runs the test can classify the outcome without the library
// in the loop.
type PlannedTest struct {
	Target cfsm.Ref
	Test   cfsm.TestCase
	// Predictions pairs each hypothesis with its predicted observations;
	// the entry with a nil Fault is the specification's prediction.
	Predictions []Prediction
}

// Prediction is one hypothesis' expected outcome for a planned test.
type Prediction struct {
	Fault    *fault.Fault // nil for the specification
	Expected []cfsm.Observation
}

// SuggestNextTests plans, without executing anything, the first additional
// diagnostic test for every candidate transition of the analysis — the
// offline counterpart of Step 6 for settings where the implementation under
// test is not interactively reachable (observations arrive as recorded
// logs). Each planned test follows the same construction as Localize:
// reset, transfer sequence avoiding the other candidates, the candidate's
// input, and — when the prefix alone does not separate any pair of
// hypotheses — a distinguishing suffix.
//
// Candidates that cannot currently be exercised (every path to them crosses
// another candidate) are omitted; they become testable after the tests for
// the other candidates have pruned the hypothesis space, exactly as in the
// interactive retry loop.
func SuggestNextTests(a *Analysis) []PlannedTest {
	if len(a.Diagnoses) <= 1 {
		return nil
	}
	order, byRef := groupDiagnoses(a)
	avoidAll := cfsm.NewRefSet(order...)
	var out []PlannedTest
	for _, ref := range order {
		planned, ok := planCandidateTest(a, ref, byRef[ref], avoidAll.Without(ref))
		if ok {
			out = append(out, planned)
		}
	}
	return out
}

func planCandidateTest(a *Analysis, ref cfsm.Ref, hyps []fault.Fault, avoid cfsm.RefSet) (PlannedTest, bool) {
	t, ok := a.Spec.Transition(ref)
	if !ok {
		return PlannedTest{}, false
	}
	eng := a.engine()
	specVar, err := eng.variant(nil)
	if err != nil {
		return PlannedTest{}, false
	}
	variants := []variant{{fault: nil, h: specVar}}
	for i := range hyps {
		h, err := eng.variant(&hyps[i])
		if err != nil {
			continue
		}
		variants = append(variants, variant{fault: &hyps[i], h: h})
	}
	if len(variants) < 2 {
		return PlannedTest{}, false
	}
	avoidWithSelf := avoid.Clone()
	avoidWithSelf[ref] = true
	transferInputs, ok := eng.transferToState(ref.Machine, t.From, avoidWithSelf)
	if !ok {
		return PlannedTest{}, false
	}
	prefix := append([]cfsm.Input{cfsm.Reset()}, transferInputs...)
	prefix = append(prefix, cfsm.Input{Port: ref.Machine, Sym: t.Input})

	test, ok, _ := nextDiscriminatingTest(eng, variants, prefix, avoid, a.matcher)
	if !ok {
		return PlannedTest{}, false
	}
	test.Name = "suggested-" + ref.Name
	planned := PlannedTest{Target: ref, Test: test}
	for _, v := range variants {
		predicted, err := v.h.Run(test)
		if err != nil {
			continue
		}
		planned.Predictions = append(planned.Predictions, Prediction{
			Fault:    v.fault,
			Expected: predicted,
		})
	}
	return planned, true
}
