package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
)

// explains reports whether injecting the fault into the specification makes
// the whole test suite reproduce the observed outputs, through the
// analysis' observation matcher when one is installed. The check runs on the
// analysis' execution engine.
func (a *Analysis) explains(f fault.Fault) bool {
	return a.engine().explains(a, f)
}

// emitDiagnoses implements Step 5C: transitions with empty EndStates, empty
// outputs and empty statout are correct and drop out; the remainder form the
// DCtr/DCco sets, and one diagnosis is generated per surviving hypothesis.
func (a *Analysis) emitDiagnoses() {
	a.DCtr = make(MachineSets, a.Spec.N())
	a.DCco = make(MachineSets, a.Spec.N())
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCtr[m] {
			if len(a.EndStates[r]) > 0 {
				a.DCtr[m] = append(a.DCtr[m], r)
			}
		}
		for _, r := range a.FTCco[m] {
			if len(a.Outputs[r]) > 0 || len(a.StatOut[r]) > 0 {
				a.DCco[m] = append(a.DCco[m], r)
			}
		}
	}

	add := func(f fault.Fault) { a.Diagnoses = append(a.Diagnoses, f) }
	// Diagnoses of the unique symptom transition first, matching the
	// paper's Section 4 ordering (Diag1 concerns the ust).
	for _, r := range a.UstSet {
		for _, o := range a.Outputs[r] {
			add(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o})
		}
		for _, so := range a.StatOut[r] {
			add(statOutFault(a.Spec, r, so))
		}
		for _, s := range a.EndStates[r] {
			add(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s})
		}
	}
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.DCtr[m] {
			for _, s := range a.EndStates[r] {
				add(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s})
			}
		}
		for _, r := range a.DCco[m] {
			for _, o := range a.Outputs[r] {
				add(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o})
			}
			for _, so := range a.StatOut[r] {
				add(statOutFault(a.Spec, r, so))
			}
		}
	}
}

// EscalateCombined widens the hypothesis space to combined (state, output)
// faults for every output-fault candidate (the FTCco transitions and the
// unique symptom transition) and regenerates the Step 5C sets and diagnoses.
// It returns true when the escalation produced at least one new diagnosis.
//
// The escalation runs at most once per analysis; Localize invokes it before
// declaring the observations inconsistent with the fault model, closing the
// gap the paper's flag heuristic leaves for combined faults whose extra
// symptoms never materialize within the test suite.
func (a *Analysis) EscalateCombined() bool {
	if a.Escalated {
		return false
	}
	a.Escalated = true
	before := len(a.Diagnoses)

	// With the flag set, or a matcher installed, Step 5B verified the
	// combined space of every candidate already — the ust over its symptom
	// output or its whole class alphabet, the FTCco transitions over theirs
	// — so verifying again adds no couple
	// (TestEscalateCombinedRedundantAfterCombinedStep5B) and only the empty
	// entries are dropped.
	verified := a.Flag || a.matcher != nil
	merge := func(r cfsm.Ref, candidates []cfsm.Symbol) {
		if !verified {
			have := make(map[StateOutput]bool, len(a.StatOut[r]))
			for _, so := range a.StatOut[r] {
				have[so] = true
			}
			for _, so := range a.engine().statOut(a, r, candidates) {
				t, _ := a.Spec.Transition(r)
				if so.State == t.To {
					continue // pure output faults are already covered by Outputs
				}
				if !have[so] {
					have[so] = true
					a.StatOut[r] = append(a.StatOut[r], so)
				}
			}
		}
		if len(a.StatOut[r]) == 0 {
			delete(a.StatOut, r)
		}
	}
	for _, r := range a.UstSet {
		merge(r, []cfsm.Symbol{a.USO})
	}
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCco[m] {
			merge(r, a.Spec.AlternativeOutputs(r))
		}
	}

	a.DCtr, a.DCco, a.Diagnoses = nil, nil, nil
	a.emitDiagnoses()
	return len(a.Diagnoses) > before
}

// EscalateAddress widens the hypothesis space once more, to the addressing
// faults of the KindAddress extension (the paper's future work): for every
// initial tentative candidate, every alternative destination whose injection
// explains all observations becomes a diagnosis. It returns true when new
// diagnoses appeared. Localize invokes it only after the combined-fault
// escalation also failed, so the paper's original fault model keeps
// priority.
func (a *Analysis) EscalateAddress() bool {
	if a.AddressEscalated {
		return false
	}
	a.AddressEscalated = true
	before := len(a.Diagnoses)
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.ITC[m] {
			t, ok := a.Spec.Transition(r)
			if !ok {
				continue
			}
			for dest := cfsm.DestEnv; dest < a.Spec.N(); dest++ {
				if dest == t.Dest || dest == r.Machine {
					continue
				}
				f := fault.Fault{Ref: r, Kind: fault.KindAddress, Dest: dest}
				if a.explains(f) {
					a.Addresses[r] = append(a.Addresses[r], dest)
					a.Diagnoses = append(a.Diagnoses, f)
				}
			}
		}
	}
	return len(a.Diagnoses) > before
}

// statOutFault converts a statout couple into a fault value, degenerating to
// a pure output fault when the state component equals the specified next
// state.
func statOutFault(spec *cfsm.System, r cfsm.Ref, so StateOutput) fault.Fault {
	t, _ := spec.Transition(r)
	if so.State == t.To {
		return fault.Fault{Ref: r, Kind: fault.KindOutput, Output: so.Output}
	}
	return fault.Fault{Ref: r, Kind: fault.KindBoth, Output: so.Output, To: so.State}
}
