package singlefsm

import (
	"cfsmdiag/internal/fsm"
)

// ExhaustiveCost computes the cost, in applied inputs, of verifying every
// transition of a machine in the W-method style the paper contrasts with:
// for each transition, a test "reset + transfer sequence to the source state
// + the input (output check) + one test per characterization sequence for
// the ending state". It is the "existing test selection methods with a
// strong diagnostic power (i.e., W or DS methods)" baseline of the paper's
// concluding discussion.
//
// The returned counts include one input per implicit reset. Transitions
// whose source state is unreachable are skipped: no test can exercise them.
func ExhaustiveCost(m *fsm.FSM) (tests, inputs int) {
	w, _ := m.CharacterizationSet(m.States(), nil)
	if len(w) == 0 {
		// Machines whose states are pairwise equivalent still get the
		// output check per transition.
		w = [][]fsm.Symbol{nil}
	}
	for _, t := range m.Transitions() {
		transfer, ok := m.TransferSequence(m.Initial(), t.From, nil)
		if !ok {
			continue
		}
		for _, seq := range w {
			tests++
			inputs += 1 /*reset*/ + len(transfer) + 1 /*t.Input*/ + len(seq)
		}
	}
	return tests, inputs
}
