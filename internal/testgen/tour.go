package testgen

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// SuiteOrTour returns suite when it is non-empty, and otherwise the
// transition tour of sys with the transitions it leaves uncovered. An empty
// tour (every transition unreachable from the initial configuration) is an
// error: a diagnosis or sweep over zero test cases would report "no fault"
// without testing anything.
func SuiteOrTour(sys *cfsm.System, suite []cfsm.TestCase) ([]cfsm.TestCase, []cfsm.Ref, error) {
	if len(suite) > 0 {
		return suite, nil, nil
	}
	return NonEmptyTour(Tour(sys, 0))
}

// NonEmptyTour passes a generated tour and its uncovered transitions
// through, and fails when the tour is empty, as SuiteOrTour does; callers
// that cache a specification's tour use it in place of SuiteOrTour.
func NonEmptyTour(tour []cfsm.TestCase, uncovered []cfsm.Ref) ([]cfsm.TestCase, []cfsm.Ref, error) {
	if len(tour) == 0 {
		return nil, uncovered, fmt.Errorf("suite omitted and the generated transition tour is empty (%d transitions unreachable from the initial configuration); supply an explicit suite", len(uncovered))
	}
	return tour, uncovered, nil
}

// Tour generates a transition-tour test suite: a set of test cases, each
// beginning with the reset input, that together execute every transition of
// every machine at least once. It stands in for the external test-selection
// methods the paper assumes for the initial test suite TS ([13] in the
// paper's references) and is used by the fault-sweep and cost experiments.
//
// The construction is greedy: from the current configuration, a breadth-
// first search finds a shortest input sequence whose last step executes at
// least one still-uncovered transition; the sequence is appended to the
// current test case and everything it executed is marked covered. When no
// uncovered transition is reachable from the current configuration the test
// case is closed and a fresh one is started from the initial configuration.
// Transitions unreachable from the initial configuration are returned in
// uncovered.
//
// maxLen bounds the number of inputs per test case (0 means no bound); long
// tours are split so that diagnosis works with realistically sized test
// cases.
func Tour(sys *cfsm.System, maxLen int) (suite []cfsm.TestCase, uncovered []cfsm.Ref) {
	return engine(sys).Tour(maxLen)
}
