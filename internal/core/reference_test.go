// The interpreted reference engine: Steps 1–6 run directly on the
// string-keyed cfsm.System. Production diagnoses run on the compiled engine;
// the differential tests select this one with Reference and compare.
package core

import (
	"fmt"
	"slices"
	"sort"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/trace"
)

// systemEngine is the interpreted reference engine: every operation runs
// against the string-keyed cfsm.System, rewiring a clone per hypothesis. The
// differential tests run the pipeline on it (Reference) and require the
// compiled engine's results to be identical.
type systemEngine struct {
	spec *cfsm.System
}

// bind binds the reference to any specification: Reference names it before
// the specification is known.
func (e systemEngine) bind(spec *cfsm.System) (engine, bool) {
	return systemEngine{spec: spec}, true
}

func (e systemEngine) analyze(a *Analysis, tr *trace.Tracer) error {
	return a.analyzeInterpreted(tr)
}

// explains applies the fault to a clone of the specification and re-runs
// the suite, comparing through the analysis' matcher: with one installed a
// hypothesis survives iff its prediction is compatible with the recorded
// observations (for per-port projections, iff some consistent interleaving
// of the prediction matches the local traces).
func (e systemEngine) explains(a *Analysis, f fault.Fault) bool {
	mutant, err := f.Apply(e.spec)
	if err != nil {
		return false
	}
	for i, tc := range a.Suite {
		predicted, err := mutant.Run(tc)
		if err != nil {
			return false
		}
		if !matcherEqual(a.matcher, predicted, a.Observed[i]) {
			return false
		}
	}
	return true
}

func (e systemEngine) statOut(a *Analysis, r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput {
	return a.statOutFor(r, candidates)
}

func (e systemEngine) variant(f *fault.Fault) (variantRunner, error) {
	if f == nil {
		return systemVariant{sys: e.spec}, nil
	}
	sys, err := f.Apply(e.spec)
	if err != nil {
		return nil, err
	}
	return systemVariant{sys: sys}, nil
}

func (e systemEngine) transferToState(machine int, target cfsm.State, avoid cfsm.RefSet) ([]cfsm.Input, bool) {
	res, ok := refsearch.TransferToState(e.spec, machine, target, avoid)
	return res.Inputs, ok
}

func (e systemEngine) distinguish(a, b variantAt, avoid cfsm.RefSet, projected bool) ([]cfsm.Input, bool, bool) {
	va := a.v.(systemVariant).at(a.cfg)
	vb := b.v.(systemVariant).at(b.cfg)
	return refsearch.Distinguish(va, vb, e.spec.AllInputs(), avoid, projected)
}

// systemVariant executes one hypothesis against its interpreted system.
type systemVariant struct {
	sys *cfsm.System
}

func (v systemVariant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	return v.sys.Run(tc)
}

func (v systemVariant) RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, []int32, error) {
	cfg := v.sys.InitialConfig()
	var obs []cfsm.Observation
	for _, in := range inputs {
		next, o, _, err := v.sys.Apply(cfg, in)
		if err != nil {
			return nil, nil, err
		}
		obs = append(obs, o)
		cfg = next
	}
	ids := make([]int32, len(cfg))
	for i, s := range cfg {
		ids[i] = int32(slices.Index(v.sys.Machine(i).States(), s))
	}
	return obs, ids, nil
}

// at is the variant positioned at a configuration RunInputs reported.
func (v systemVariant) at(ids []int32) refsearch.Variant {
	cfg := make(cfsm.Config, len(ids))
	for i, id := range ids {
		cfg[i] = v.sys.Machine(i).States()[id]
	}
	return refsearch.Variant{Sys: v.sys, Cfg: cfg}
}

// analyzeInterpreted runs Steps 1–5B against the string-keyed specification:
// simulate the suite, extract symptoms, build and intersect conflict sets,
// split the candidate sets and verify every hypothesis. It is the
// reference engine's analysis; compiled.Engine.Analyze computes the same
// fields on dense tables.
func (a *Analysis) analyzeInterpreted(tr *trace.Tracer) error {
	// Steps 1–3: expected outputs, symptoms, unique symptom transition, flag.
	traces := make([][][]cfsm.Executed, len(a.Suite))
	for i, tc := range a.Suite {
		exp, steps, err := a.Spec.RunTrace(tc)
		simCase(tr, a.Spec, tc, exp, steps, err)
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

// verifyHypotheses is the reference engine's verification half of Step 5B:
// every hypothesized fault is injected into a copy of the specification, the
// entire test suite is re-simulated, and the hypothesis survives only if the
// re-simulation reproduces the observed outputs — exactly, or through the
// observation matcher (the paper's calouts, findendingstates and
// processtate&out procedures, all of which "apply the test case to the
// modified specification" and compare with the observations).
// compiled.Engine.Analyze computes the same sets on overlays.
func (a *Analysis) verifyHypotheses() {
	// findendingstates over FTCtr — plus, as a soundness amendment, over the
	// unique symptom transition (see DESIGN.md §3): for each candidate and
	// each state other than the specified next state, keep the states whose
	// transfer hypothesis explains all observations.
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCtr[m] {
			a.EndStates[r] = a.endStatesFor(r)
		}
	}
	for _, r := range a.UstSet {
		a.EndStates[r] = a.endStatesFor(r)
	}

	// ustprocessing: with the flag false the unique symptom transition is
	// checked for an output fault equal to the unique symptom output; with
	// the flag true it is checked for combined (state, uso) faults.
	//
	// Under an observation matcher (distributed observation) the recorded
	// symptom symbol no longer pins the faulty output — the observers may
	// not agree on which event fell on the symptom slot — and the flag is
	// computed from a canonical interleaving, so neither narrows soundly.
	// The matcher path therefore checks the full combined space over every
	// alternative output of the transition's class alphabet; verification
	// through the matcher prunes it back down.
	for _, r := range a.UstSet {
		switch {
		case a.matcher != nil:
			a.StatOut[r] = a.statOutFor(r, a.Spec.AlternativeOutputs(r))
		case a.Flag:
			a.StatOut[r] = a.statOutFor(r, []cfsm.Symbol{a.USO})
		default:
			a.Outputs[r] = a.outputsFor(r, []cfsm.Symbol{a.USO})
		}
	}

	// inttransproc over FTCco: internal-output transitions are checked for
	// every alternative output in their class alphabet OIO_{i>j}; with the
	// flag true — or under a matcher, where the flag is unreliable — for
	// combined (state, output) couples instead.
	for m := 0; m < a.Spec.N(); m++ {
		for _, r := range a.FTCco[m] {
			alts := a.Spec.AlternativeOutputs(r)
			if a.Flag || a.matcher != nil {
				a.StatOut[r] = a.statOutFor(r, alts)
			} else {
				a.Outputs[r] = a.outputsFor(r, alts)
			}
		}
	}
}

// endStatesFor computes EndStates(T_k): the states s ≠ NextState(T_k) such
// that the pure transfer hypothesis T_k → s explains all observations.
func (a *Analysis) endStatesFor(r cfsm.Ref) []cfsm.State {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []cfsm.State
	for _, s := range a.Spec.Machine(r.Machine).States() {
		if s == t.To {
			continue
		}
		if a.explains(fault.Fault{Ref: r, Kind: fault.KindTransfer, To: s}) {
			out = append(out, s)
		}
	}
	return out
}

// outputsFor computes outputs(T_k) over the given candidate faulty outputs:
// the outputs o ≠ Output(T_k) whose pure output hypothesis explains all
// observations. Candidates outside the transition's class alphabet (for the
// ust, an observed ε or an output foreign to OEO) are rejected by fault
// validation inside explains.
func (a *Analysis) outputsFor(r cfsm.Ref, candidates []cfsm.Symbol) []cfsm.Symbol {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []cfsm.Symbol
	for _, o := range candidates {
		if o == t.Output || o == cfsm.Epsilon || o == "" {
			continue
		}
		if a.explains(fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o}) {
			out = append(out, o)
		}
	}
	return out
}

// statOutFor computes statout(T_k): couples (s, o) — o over the candidate
// faulty outputs, s over every state of the machine — whose combined
// hypothesis explains all observations. The couple with s equal to the
// specified next state degenerates to a pure output fault and is verified as
// such, so that the statout set covers the full "output and/or transfer"
// space of the flag-true case.
func (a *Analysis) statOutFor(r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput {
	t, ok := a.Spec.Transition(r)
	if !ok {
		return nil
	}
	var out []StateOutput
	for _, o := range candidates {
		if o == t.Output || o == cfsm.Epsilon || o == "" {
			continue
		}
		for _, s := range a.Spec.Machine(r.Machine).States() {
			var f fault.Fault
			if s == t.To {
				f = fault.Fault{Ref: r, Kind: fault.KindOutput, Output: o}
			} else {
				f = fault.Fault{Ref: r, Kind: fault.KindBoth, Output: o, To: s}
			}
			if a.explains(f) {
				out = append(out, StateOutput{State: s, Output: o})
			}
		}
	}
	return out
}
