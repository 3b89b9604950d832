package testgen

import (
	"fmt"
	"slices"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
)

// VerificationSuite generates a fault-model-complete test suite: a set of
// reset-prefixed test cases that detects every *detectable* single-transition
// fault of the specification. It is the CFSM counterpart of the W-method
// suites with "strong diagnostic power" that the paper's concluding
// discussion contrasts with: instead of verifying output and ending state of
// each transition in isolation (which can miss internal output faults whose
// receiver happens to be in a non-receiving state), it walks the fault model
// itself — for every enumerated single-transition mutant it ensures some
// test case distinguishes the mutant from the specification, synthesizing a
// shortest distinguishing sequence when the tests collected so far do not.
//
// Mutants that no input sequence can distinguish from the specification are
// returned in undetectable; they are outside the reach of any testing
// method.
//
// Compared with the transition tour, a VerificationSuite is larger but
// guarantees detection; experiment E5 uses both to show how the initial
// suite's power affects diagnosis coverage.
func VerificationSuite(sys *cfsm.System) (suite []cfsm.TestCase, undetectable []fault.Fault) {
	e := engine(sys)
	// The specification itself and its empty run cannot fail.
	spec, _ := e.Variant(nil)
	_, start, _ := spec.RunInputs(nil)
	// cases[k] is suite[k] compiled on its own: the suite grows while the
	// mutants are walked.
	var cases []*compiled.Suite
	for _, f := range fault.Enumerate(sys) {
		mutant, err := e.Variant(&f)
		if err != nil {
			continue
		}
		if slices.ContainsFunc(cases, func(c *compiled.Suite) bool { return e.Detects(c, 0, f) }) {
			continue
		}
		seq, ok, _ := e.Distinguish(spec, start, mutant, start, nil, false)
		if !ok {
			undetectable = append(undetectable, f)
			continue
		}
		suite = append(suite, cfsm.TestCase{
			Name:   fmt.Sprintf("verify%d-%s", len(suite)+1, f.Ref.Name),
			Inputs: append([]cfsm.Input{cfsm.Reset()}, seq...),
		})
		cases = append(cases, compiled.NewSuite(e.Program(), suite[len(suite)-1:]))
	}
	return suite, undetectable
}

// SuiteInputs counts the total inputs of a suite, the cost measure of the
// E6 experiments.
func SuiteInputs(suite []cfsm.TestCase) int {
	n := 0
	for _, tc := range suite {
		n += len(tc.Inputs)
	}
	return n
}
