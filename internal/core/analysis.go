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
	"sort"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/trace"
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
type StateOutput struct {
	State  cfsm.State
	Output cfsm.Symbol
}

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
// on the compiled engine when the specification's configuration space
// packs and on the interpreted one otherwise (see engine); Localize reuses
// the engine through the returned Analysis. Options other than WithRegistry,
// WithTrace, WithObsMatcher and WithEngine are ignored here; they configure
// the Step-6 entry points.
func Analyze(spec *cfsm.System, suite []cfsm.TestCase, observed [][]cfsm.Observation, opts ...Option) (*Analysis, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	m := newMetrics(cfg.registry)
	if len(observed) != len(suite) {
		return nil, fmt.Errorf("core: %d observation sequences for %d test cases", len(observed), len(suite))
	}
	tspan := cfg.trace.Begin(trace.KindAnalyze, trace.A("cases", itoa(len(suite))))
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

	m.analyses.Inc()
	m.symptoms.Add(int64(len(a.Symptoms)))
	a.traceSymptoms(cfg.trace)
	if !a.HasSymptoms() {
		m.diagnosisSize.ObserveInt(0)
		tspan.End(trace.A("symptoms", "0"), trace.A("diagnoses", "0"))
		return a, nil
	}
	a.traceConflicts(cfg.trace)
	a.traceCandidateSplit(cfg.trace)
	a.traceHypotheses(cfg.trace)

	// Step 5C: prune and emit diagnoses.
	a.emitDiagnoses()
	a.traceDiagnoses(cfg.trace)
	for _, sets := range a.Conflicts {
		size := 0
		for _, refs := range sets {
			size += len(refs)
		}
		m.conflictSize.ObserveInt(size)
	}
	m.diagnosisSize.ObserveInt(len(a.Diagnoses))
	tspan.End(
		trace.A("symptoms", itoa(len(a.Symptoms))),
		trace.A("diagnoses", itoa(len(a.Diagnoses))))
	return a, nil
}

// analyzeInterpreted runs Steps 1–5B against the string-keyed specification:
// simulate the suite, extract symptoms, build and intersect conflict sets,
// split the candidate sets and verify every hypothesis. It is the
// interpreted engine's analysis; compiled.Engine.Analyze computes the same
// fields on dense tables.
func (a *Analysis) analyzeInterpreted(tr *trace.Tracer) error {
	// Steps 1–3: expected outputs, symptoms, unique symptom transition, flag.
	traces := make([][][]cfsm.Executed, len(a.Suite))
	for i, tc := range a.Suite {
		exp, steps, err := a.Spec.RunTraced(tc, tr)
		if err != nil {
			return fmt.Errorf("core: simulate %s on specification: %w", tc.Name, err)
		}
		if len(a.Observed[i]) != len(exp) {
			return fmt.Errorf("core: %s: %d observations for %d inputs", tc.Name, len(a.Observed[i]), len(exp))
		}
		a.Expected = append(a.Expected, exp)
		traces[i] = steps
	}
	a.findSymptoms(traces)
	if !a.HasSymptoms() {
		return nil
	}

	// Step 4: conflict sets; Step 5A: initial tentative candidates.
	a.buildConflictSets(traces)
	a.intersectConflictSets()

	// Step 5B: split candidate sets and verify hypotheses.
	a.splitCandidateSets()
	a.verifyHypotheses()
	return nil
}

// findSymptoms implements Step 3 and Definition 4.
func (a *Analysis) findSymptoms(traces [][][]cfsm.Executed) {
	ustKnown := false
	ustUnique := true
	var ust *cfsm.Ref
	var uso cfsm.Symbol

	for i := range a.Suite {
		firstSeen := false
		for j := range a.Expected[i] {
			if a.Expected[i][j] == a.Observed[i][j] {
				continue
			}
			sym := Symptom{
				Case:     i,
				Step:     j,
				Expected: a.Expected[i][j],
				Observed: a.Observed[i][j],
			}
			if tr := symptomTransition(traces[i][j]); tr != nil {
				sym.Transition = tr
			}
			a.Symptoms = append(a.Symptoms, sym)
			if !firstSeen {
				firstSeen = true
				a.FirstSymptom[i] = j
				// Track the unique symptom transition across the first
				// symptoms of all test cases.
				if !ustKnown {
					ustKnown = true
					ust = sym.Transition
					uso = sym.Observed.Sym
				} else if ust == nil || sym.Transition == nil || *ust != *sym.Transition {
					ustUnique = false
				}
			} else {
				// A mismatch after the first symptom sets the flag (note in
				// Step 4 of the paper).
				a.Flag = true
			}
		}
	}
	if ustKnown && ustUnique && ust != nil {
		a.UST = ust
		a.USO = uso
	}
}

// symptomTransition extracts the specification transition that generated the
// observable output at a step: the last external-output transition of the
// executed chain, if any.
func symptomTransition(trace []cfsm.Executed) *cfsm.Ref {
	for k := len(trace) - 1; k >= 0; k-- {
		if !trace[k].Trans.Internal() {
			r := trace[k].Ref()
			return &r
		}
	}
	return nil
}

// buildConflictSets implements Step 4: for each test case with symptoms and
// each machine, the set of that machine's transitions executed by the
// specification up to and including the first symptom's step.
func (a *Analysis) buildConflictSets(traces [][][]cfsm.Executed) {
	for caseIdx, stop := range a.FirstSymptom {
		sets := make(MachineSets, a.Spec.N())
		seen := make(map[cfsm.Ref]bool)
		for step := 0; step <= stop; step++ {
			for _, e := range traces[caseIdx][step] {
				r := e.Ref()
				if !seen[r] {
					seen[r] = true
					sets[e.Machine] = append(sets[e.Machine], r)
				}
			}
		}
		a.Conflicts[caseIdx] = sets
	}
}

// intersectConflictSets implements Step 5A: per machine, the intersection of
// the machine's conflict sets across all symptomatic test cases.
func (a *Analysis) intersectConflictSets() {
	a.ITC = make(MachineSets, a.Spec.N())
	var caseIdxs []int
	for i := range a.Conflicts {
		caseIdxs = append(caseIdxs, i)
	}
	sort.Ints(caseIdxs)
	for m := 0; m < a.Spec.N(); m++ {
		counts := make(map[cfsm.Ref]int)
		for _, i := range caseIdxs {
			for _, r := range a.Conflicts[i][m] {
				counts[r]++
			}
		}
		var inter []cfsm.Ref
		// Preserve the first conflict set's order for determinism.
		if len(caseIdxs) > 0 {
			for _, r := range a.Conflicts[caseIdxs[0]][m] {
				if counts[r] == len(caseIdxs) {
					inter = append(inter, r)
				}
			}
		}
		a.ITC[m] = inter
	}
}

// splitCandidateSets implements the set construction of Step 5B: the unique
// symptom transition forms the ustset; every other ITC member is a transfer-
// fault candidate (FTCtr); internal-output ITC members are additionally
// output-fault candidates (FTCco).
func (a *Analysis) splitCandidateSets() {
	a.FTCtr = make(MachineSets, a.Spec.N())
	a.FTCco = make(MachineSets, a.Spec.N())
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.ITC[m] {
			if a.UST != nil && r == *a.UST {
				a.UstSet = append(a.UstSet, r)
				continue
			}
			a.FTCtr[m] = append(a.FTCtr[m], r)
			t, _ := a.Spec.Transition(r)
			if t.Internal() {
				a.FTCco[m] = append(a.FTCco[m], r)
			}
		}
	}
}
