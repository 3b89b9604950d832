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
	tour, uncovered := Tour(sys, 0)
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
	covered := make(RefSet)
	total := sys.NumTransitions()

	current := cfsm.TestCase{
		Name:   fmt.Sprintf("tour%d", len(suite)+1),
		Inputs: []cfsm.Input{cfsm.Reset()},
	}
	cfg := sys.InitialConfig()

	closeCase := func() {
		if len(current.Inputs) > 1 {
			suite = append(suite, current)
		}
		current = cfsm.TestCase{
			Name:   fmt.Sprintf("tour%d", len(suite)+1),
			Inputs: []cfsm.Input{cfsm.Reset()},
		}
		cfg = sys.InitialConfig()
	}

	for len(covered) < total {
		seq, end, ok := nextUncovered(sys, cfg, covered)
		if !ok {
			// Nothing new reachable from here. If we are mid-case, restart
			// from the initial configuration; if we are already there, the
			// remaining transitions are unreachable.
			if len(current.Inputs) > 1 {
				closeCase()
				continue
			}
			break
		}
		if maxLen > 0 && len(current.Inputs)+len(seq) > maxLen && len(current.Inputs) > 1 {
			closeCase()
			continue
		}
		// Mark everything along the sequence as covered.
		c := cfg
		for _, in := range seq {
			next, _, trace, err := sys.Apply(c, in)
			if err != nil {
				break
			}
			for _, e := range trace {
				covered[e.Ref()] = true
			}
			c = next
		}
		current.Inputs = append(current.Inputs, seq...)
		cfg = end
	}
	if len(current.Inputs) > 1 {
		suite = append(suite, current)
	}
	for _, r := range sys.Refs() {
		if !covered[r] {
			uncovered = append(uncovered, r)
		}
	}
	return suite, uncovered
}

// nextUncovered finds a shortest input sequence from cfg whose final step
// executes at least one uncovered transition.
func nextUncovered(sys *cfsm.System, cfg cfsm.Config, covered RefSet) (seq []cfsm.Input, end cfsm.Config, ok bool) {
	type node struct {
		cfg  cfsm.Config
		path []cfsm.Input
	}
	inputs := AllInputs(sys)
	seen := map[string]bool{cfg.Key(): true}
	frontier := []node{{cfg: cfg}}
	for len(frontier) > 0 && len(seen) < searchLimit {
		n := frontier[0]
		frontier = frontier[1:]
		for _, in := range inputs {
			next, _, trace, err := sys.Apply(n.cfg, in)
			if err != nil || len(trace) == 0 {
				continue
			}
			path := append(append([]cfsm.Input(nil), n.path...), in)
			for _, e := range trace {
				if !covered[e.Ref()] {
					return path, next, true
				}
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			frontier = append(frontier, node{cfg: next, path: path})
		}
	}
	return nil, nil, false
}
