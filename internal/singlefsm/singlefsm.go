// Package singlefsm implements Steps 1–5 of the predecessor diagnosis
// algorithm for systems modeled as a single deterministic FSM (Ghedamsi &
// Bochmann, ICDCS 1992 — reference [6] of the paper). The CFSM paper
// generalizes it; here it serves two roles, both in experiment E6:
//
//   - Analyze is the baseline the paper compares against, diagnosing the
//     CFSM system's exponential product machine instead of the machines
//     directly;
//   - ExhaustiveCost is the "verify every transition" cost baseline,
//     quantifying the paper's claim that directed diagnosis needs shorter
//     test suites than the W or DS methods.
//
// Test cases are input sequences applied from the initial state (an implicit
// reset precedes every test case).
package singlefsm

import (
	"fmt"

	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/fsm"
)

// Symptom is one difference between expected and observed outputs.
type Symptom struct {
	Case       int
	Step       int
	Expected   fsm.Symbol
	Observed   fsm.Symbol
	Transition string // name of the spec transition at the step ("" if none)
}

// Diagnosis is one surviving fault hypothesis on a named transition.
type Diagnosis struct {
	Transition string
	Kind       fault.Kind
	Output     fsm.Symbol
	To         fsm.State
}

// Analysis is the Steps 1–5 result for a single machine.
type Analysis struct {
	Spec     *fsm.FSM
	Suite    [][]fsm.Symbol
	Expected [][]fsm.Symbol
	Observed [][]fsm.Symbol

	Symptoms     []Symptom
	FirstSymptom map[int]int
	UST          string
	USO          fsm.Symbol
	Flag         bool

	Conflicts  map[int][]string
	Candidates []string // intersection of conflict sets

	EndStates map[string][]fsm.State
	Outputs   map[string][]fsm.Symbol

	Diagnoses []Diagnosis
}

// HasSymptoms reports whether any test case revealed a difference.
func (a *Analysis) HasSymptoms() bool { return len(a.Symptoms) > 0 }

// Analyze performs Steps 1–5 of the single-FSM algorithm.
func Analyze(spec *fsm.FSM, suite [][]fsm.Symbol, observed [][]fsm.Symbol) (*Analysis, error) {
	if len(observed) != len(suite) {
		return nil, fmt.Errorf("singlefsm: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	a := &Analysis{
		Spec:         spec,
		Suite:        suite,
		Observed:     observed,
		FirstSymptom: make(map[int]int),
		Conflicts:    make(map[int][]string),
		EndStates:    make(map[string][]fsm.State),
		Outputs:      make(map[string][]fsm.Symbol),
	}
	for i, tc := range suite {
		if len(observed[i]) != len(tc) {
			return nil, fmt.Errorf("singlefsm: case %d: %d observations for %d inputs", i, len(observed[i]), len(tc))
		}
		exp, _ := spec.Run(spec.Initial(), tc)
		a.Expected = append(a.Expected, exp)
	}
	a.findSymptoms()
	if !a.HasSymptoms() {
		return a, nil
	}
	a.buildCandidates()
	a.verifyHypotheses()
	return a, nil
}

func (a *Analysis) findSymptoms() {
	ustKnown, ustUnique := false, true
	for i, tc := range a.Suite {
		state := a.Spec.Initial()
		first := true
		for j, input := range tc {
			tr, defined := a.Spec.Lookup(state, input)
			name := ""
			if defined {
				name = tr.Name
			}
			if a.Expected[i][j] != a.Observed[i][j] {
				a.Symptoms = append(a.Symptoms, Symptom{
					Case: i, Step: j,
					Expected: a.Expected[i][j], Observed: a.Observed[i][j],
					Transition: name,
				})
				if first {
					first = false
					a.FirstSymptom[i] = j
					if !ustKnown {
						ustKnown = true
						a.UST = name
						a.USO = a.Observed[i][j]
					} else if a.UST == "" || name != a.UST {
						ustUnique = false
					}
				} else {
					a.Flag = true
				}
			}
			if defined {
				state = tr.To
			}
		}
	}
	if !ustUnique {
		a.UST = ""
	}
}

func (a *Analysis) buildCandidates() {
	// Conflict sets in case order; the intersection across symptomatic
	// cases keeps the order of the first.
	counts := make(map[string]int)
	var firstSet []string
	for caseIdx, tc := range a.Suite {
		stop, symptomatic := a.FirstSymptom[caseIdx]
		if !symptomatic {
			continue
		}
		var set []string
		seen := make(map[string]bool)
		state := a.Spec.Initial()
		for _, input := range tc[:stop+1] {
			tr, defined := a.Spec.Lookup(state, input)
			if defined {
				if !seen[tr.Name] {
					seen[tr.Name] = true
					set = append(set, tr.Name)
				}
				state = tr.To
			}
		}
		a.Conflicts[caseIdx] = set
		if firstSet == nil {
			firstSet = set
		}
		for _, name := range set {
			counts[name]++
		}
	}
	for _, name := range firstSet {
		if counts[name] == len(a.Conflicts) {
			a.Candidates = append(a.Candidates, name)
		}
	}
}

// explains checks a hypothesis by rewiring the spec and re-simulating the
// whole suite against the observations.
func (a *Analysis) explains(name string, newOutput fsm.Symbol, newTo fsm.State) bool {
	mutant, err := a.Spec.Rewire(name, newOutput, newTo)
	if err != nil {
		return false
	}
	for i, tc := range a.Suite {
		predicted, _ := mutant.Run(mutant.Initial(), tc)
		for j := range predicted {
			if predicted[j] != a.Observed[i][j] {
				return false
			}
		}
	}
	return true
}

func (a *Analysis) verifyHypotheses() {
	for _, name := range a.Candidates {
		tr, ok := a.Spec.ByName(name)
		if !ok {
			continue
		}
		// Transfer hypotheses for every candidate.
		for _, s := range a.Spec.States() {
			if s == tr.To {
				continue
			}
			if a.explains(name, "", s) {
				a.EndStates[name] = append(a.EndStates[name], s)
			}
		}
		// Output hypotheses only for the unique symptom transition, whose
		// faulty output is directly observed (uso).
		if name == a.UST && a.USO != tr.Output && a.USO != fsm.Epsilon && a.USO != "" {
			if a.explains(name, a.USO, "") {
				a.Outputs[name] = append(a.Outputs[name], a.USO)
			}
		}
	}
	for _, name := range a.Candidates {
		for _, o := range a.Outputs[name] {
			a.Diagnoses = append(a.Diagnoses, Diagnosis{Transition: name, Kind: fault.KindOutput, Output: o})
		}
		for _, s := range a.EndStates[name] {
			a.Diagnoses = append(a.Diagnoses, Diagnosis{Transition: name, Kind: fault.KindTransfer, To: s})
		}
	}
}
