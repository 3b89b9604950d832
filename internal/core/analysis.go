// Package core implements the paper's contribution: the diagnostic algorithm
// of Section 3 for deterministic systems represented by communicating finite
// state machines, under the single-transition-fault hypothesis (at most one
// transition carries an output and/or a transfer fault).
//
// The algorithm is split in two entry points mirroring the paper:
//
//   - Analyze performs Steps 1–5: it compares expected and observed outputs,
//     derives symptoms and the unique symptom transition, builds conflict
//     sets and candidate sets, verifies every fault hypothesis by
//     re-simulating the rewired specification against the observations, and
//     emits the surviving diagnoses.
//
//   - Localize performs Step 6: starting from an Analysis with more than one
//     diagnosis, it adaptively generates additional diagnostic test cases
//     (transfer sequence + suspect input + distinguishing suffix, avoiding
//     all other candidate transitions), executes them against the IUT oracle
//     and eliminates hypotheses until the fault is localized.
//
// Deviations from the paper's presentation, chosen for soundness and
// documented in DESIGN.md §3: ending-state sets are computed for the unique
// symptom transition too, and internal-output transitions are checked both
// for transfer faults (FTCtr) and for output faults (FTCco).
package core

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
)

// Symptom is one difference between expected and observed outputs
// (Definition: "any difference o ≠ ô represents a symptom").
type Symptom struct {
	Case     int // index into the test suite
	Step     int // 0-based input index within the test case
	Expected cfsm.Observation
	Observed cfsm.Observation
	// Transition is the specification transition that produced the expected
	// output at this step (the external-output transition of the executed
	// pair). It is nil when the expectation was ε or the reset output, which
	// no transition generated.
	Transition *cfsm.Ref
}

// StateOutput is one element of a statout set: a combined hypothesis that a
// transition transfers to State and outputs Output.
type StateOutput = compiled.StateOutput

// MachineSets holds one per-machine family of transition sets, indexed by
// machine.
type MachineSets [][]cfsm.Ref

// Analysis is the result of Steps 1–5. It carries the execution engine
// Localize continues on, whose scratch state makes an Analysis unsafe for
// concurrent use.
type Analysis struct {
	Spec  *cfsm.System
	Suite []cfsm.TestCase

	// Step 1–2: expected outputs (from the specification) and observed
	// outputs (from the IUT), per test case.
	Expected [][]cfsm.Observation
	Observed [][]cfsm.Observation

	// Step 3: symptoms, the first symptom per symptomatic test case, the
	// unique symptom transition (nil if none) with its observed output, and
	// the flag ("true if the outputs after the first symptom also differ").
	Symptoms     []Symptom
	FirstSymptom map[int]int
	UST          *cfsm.Ref
	USO          cfsm.Symbol
	Flag         bool

	// Step 4: conflict sets per symptomatic test case and machine.
	Conflicts map[int]MachineSets

	// Step 5A/5B: candidate sets.
	ITC    MachineSets
	UstSet []cfsm.Ref
	FTCtr  MachineSets
	FTCco  MachineSets

	// Step 5B: verified hypothesis sets.
	EndStates map[cfsm.Ref][]cfsm.State
	Outputs   map[cfsm.Ref][]cfsm.Symbol
	StatOut   map[cfsm.Ref][]StateOutput

	// Step 5C: diagnostic candidate sets and the surviving diagnoses.
	DCtr      MachineSets
	DCco      MachineSets
	Diagnoses []fault.Fault

	// Addresses holds, for candidates that survive the address-fault
	// escalation (the KindAddress extension), the alternative destinations
	// that explain all observations.
	Addresses map[cfsm.Ref][]int
	// AddressEscalated records that the address-fault escalation ran.
	AddressEscalated bool

	// Escalated records that the combined-fault fallback ran: the paper's
	// flag heuristic skips combined (output and transfer) hypotheses when
	// the outputs after the first symptom match, but a combined fault whose
	// symptom falls on the last step of a test case produces exactly that
	// pattern. When Step 5 leaves no hypothesis (or Step 6 clears them
	// all), EscalateCombined re-runs Step 5B with the full combined
	// hypothesis space. See DESIGN.md §3.
	Escalated bool

	// eng is the execution engine Analyze resolved for this analysis and
	// Localize reuses; nil (a hand-built Analysis) is resolved on first use
	// by Analysis.engine.
	eng engine
	// matcher generalizes predicted-vs-observed comparison; nil means exact
	// equality. See WithObsMatcher.
	matcher ObsMatcher
}

// HasSymptoms reports whether any test case revealed a difference.
func (a *Analysis) HasSymptoms() bool { return len(a.Symptoms) > 0 }

// Analyze performs Steps 1–5 for the given specification, test suite and
// observed outputs (one observation sequence per test case, as produced by
// executing the suite on the implementation under test). The analysis runs
// on the compiled engine (see engine), and Localize reuses the engine
// through the returned Analysis. Options other than WithRegistry,
// WithTrace, WithObsMatcher and WithEngine are ignored here; they configure
// the Step-6 entry points.
func Analyze(spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, opts ...Option) (*Analysis, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	if spec == nil {
		return nil, fmt.Errorf("core: nil specification")
	}
	if len(observed) != len(suite) {
		return nil, fmt.Errorf("core: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	in := newInstruments(cfg.registry, cfg.trace)
	span := in.analyzeBegin(len(suite))
	a := &Analysis{
		Spec:         spec,
		Suite:        suite,
		Observed:     observed,
		eng:          cfg.engineFor(spec),
		matcher:      cfg.matcher,
		FirstSymptom: make(map[int]int),
		Conflicts:    make(map[int]MachineSets),
		EndStates:    make(map[cfsm.Ref][]cfsm.State),
		Outputs:      make(map[cfsm.Ref][]cfsm.Symbol),
		StatOut:      make(map[cfsm.Ref][]StateOutput),
		Addresses:    make(map[cfsm.Ref][]int),
	}
	if err := a.eng.analyze(a, cfg.trace); err != nil {
		return nil, err
	}
	if a.HasSymptoms() {
		a.emitDiagnoses() // Step 5C: prune and emit diagnoses
	}
	in.analyzed(a, span)
	return a, nil
}
