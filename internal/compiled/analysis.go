package compiled

import (
	"fmt"
	"slices"

	"cfsmdiag/internal/cfsm"
)

// Analysis is Steps 1–5 of the diagnosis computed on the compiled program,
// materialized in the reporting shape of internal/core's Analysis, whose
// fields of the same names it fills: entry presence, slice order and
// nil-ness equal the interpreted computation's, since core serializes the
// result byte-for-byte into reports and server responses.
type Analysis struct {
	Expected     [][]cfsm.Observation
	Symptoms     []Symptom
	FirstSymptom map[int]int
	UST          *cfsm.Ref
	USO          cfsm.Symbol
	Flag         bool
	Conflicts    map[int][][]cfsm.Ref
	ITC          [][]cfsm.Ref
	UstSet       []cfsm.Ref
	FTCtr        [][]cfsm.Ref
	FTCco        [][]cfsm.Ref
	// The verified hypothesis sets (Step 5B); nil maps when there is no
	// symptom.
	EndStates map[cfsm.Ref][]cfsm.State
	Outputs   map[cfsm.Ref][]cfsm.Symbol
	StatOut   map[cfsm.Ref][]StateOutput
}

// Symptom locates one expected/observed difference: the step of a test
// case and the specification transition that produced the expected output
// there (nil when none did).
type Symptom struct {
	Case       int
	Step       int
	Transition *cfsm.Ref
}

// StateOutput is one element of a statout set: the combined hypothesis
// that a transition transfers to State and outputs Output. core.StateOutput
// is an alias of it.
type StateOutput struct {
	State  cfsm.State
	Output cfsm.Symbol
}

// Relation generalizes hypothesis verification's "predicted equals
// recorded" test: Equal reports whether the observations a hypothesis
// predicts for a test case are compatible with the recorded ones (both
// answer the same inputs, so they have equal length). It must be implied by
// exact equality and must not retain its arguments. A nil Relation is exact
// equality; core.ObsMatcher satisfies the interface, and internal/ports
// supplies the per-port projection relation of distributed observation.
type Relation interface {
	Equal(predicted, recorded []cfsm.Observation) bool
}

// evidence is what a hypothesis must explain: the compiled suite and the
// recorded observations, compiled for exact comparison and as recorded for
// rel (nil: exact equality).
type evidence struct {
	s    *Suite
	obsC [][]cobs
	obs  [][]cfsm.Observation
	rel  Relation
}

// Analyze runs Steps 1–5B of the diagnosis on the compiled program: symptom
// extraction against the precompiled expected observations, conflict sets
// as first-execution prefixes, the Step-5A intersection as a bitset AND over
// transition indices, the Step-5B candidate split and hypothesis
// verification through overlays synthesized without per-hypothesis fault
// construction. A hypothesis survives when every test case's prediction
// relates to the recorded observations under rel (nil: exact equality).
//
// Under a relation the recorded symptom symbol no longer pins the faulty
// output — the observers need not agree on which event fell on the symptom
// slot — and the flag is computed from one canonical interleaving, so
// neither narrows the hypothesis space soundly: the unique symptom
// transition and the internal-output candidates are checked over the full
// combined (state, output) space of their class alphabets instead, and
// verification through rel prunes it back down.
//
// Errors are the interpreted analysis failures (simulation failure,
// observation-count mismatch) with identical messages.
func (e *Engine) Analyze(suite []cfsm.TestCase, observed [][]cfsm.Observation, rel Relation) (Analysis, error) {
	p := e.p
	s := e.suiteFor(suite)

	// Step 1: expected outputs, reproducing the interpreted error order
	// (simulation failure before the observation-count check, in case order).
	for i := range s.cases {
		c := &s.cases[i]
		if c.simErr != nil {
			return Analysis{}, fmt.Errorf("core: simulate %s on specification: %w", suite[i].Name, c.simErr)
		}
		if len(observed[i]) != len(c.exp) {
			return Analysis{}, fmt.Errorf("core: %s: %d observations for %d inputs", suite[i].Name, len(observed[i]), len(c.exp))
		}
	}
	a := Analysis{Expected: s.expected}
	e.compileObserved(observed)
	obsC := e.observed

	// Steps 2–3: symptoms, first symptom per case, unique symptom
	// transition and flag, on compiled observation equality (foreign
	// observed symbols lower to the -1 sentinel, which matches no expected
	// alphabet symbol — exactly the interpreted string inequality).
	ustKnown := false
	ustUnique := true
	ustIdx := int32(-1)
	var uso cfsm.Symbol
	var symCases, stops []int
	a.FirstSymptom = make(map[int]int, len(s.cases))
	for i := range s.cases {
		c := &s.cases[i]
		got := obsC[i]
		firstSeen := false
		for j := range c.expC {
			if c.expC[j] == got[j] {
				continue
			}
			sym := Symptom{Case: i, Step: j}
			tIdx := c.symTrans[j]
			if tIdx >= 0 {
				r := p.Ref(tIdx)
				sym.Transition = &r
			}
			a.Symptoms = append(a.Symptoms, sym)
			if !firstSeen {
				firstSeen = true
				a.FirstSymptom[i] = j
				symCases = append(symCases, i)
				stops = append(stops, j)
				if !ustKnown {
					ustKnown = true
					ustIdx = tIdx
					uso = observed[i][j].Sym
				} else if ustIdx < 0 || tIdx < 0 || ustIdx != tIdx {
					ustUnique = false
				}
			} else {
				a.Flag = true
			}
		}
	}
	if ustKnown && ustUnique && ustIdx >= 0 {
		r := p.Ref(ustIdx)
		a.UST = &r
		a.USO = uso
	} else {
		ustIdx = -1
	}
	if len(a.Symptoms) == 0 {
		return a, nil
	}

	// Step 4: conflict sets — the precomputed first-execution prefix of each
	// symptomatic case, bucketed per machine — and their running bitset
	// intersection for Step 5A.
	n := p.N()
	inter, cur := e.analysisBits()
	inter.Reset()
	a.Conflicts = make(map[int][][]cfsm.Ref, len(symCases))
	for k, i := range symCases {
		c := &s.cases[i]
		prefix := c.conflictPrefix(stops[k])
		sets := make([][]cfsm.Ref, n)
		for x := 0; x < prefix; x++ {
			idx := c.firstExec[x]
			sets[p.trans[idx].Machine] = append(sets[p.trans[idx].Machine], p.Ref(idx))
		}
		a.Conflicts[i] = sets
		if k == 0 {
			for x := 0; x < prefix; x++ {
				inter.Set(c.firstExec[x])
			}
		} else {
			cur.Reset()
			for x := 0; x < prefix; x++ {
				cur.Set(c.firstExec[x])
			}
			inter.And(cur)
		}
	}

	// Step 5A: materialize the intersection in the first symptomatic case's
	// conflict order (the interpreted tie-break), kept as indices for 5B.
	a.ITC = make([][]cfsm.Ref, n)
	e.anITC = scratchSets(e.anITC, n)
	c0 := &s.cases[symCases[0]]
	for x, prefix0 := 0, c0.conflictPrefix(stops[0]); x < prefix0; x++ {
		idx := c0.firstExec[x]
		if !inter.Has(idx) {
			continue
		}
		m := p.trans[idx].Machine
		a.ITC[m] = append(a.ITC[m], p.Ref(idx))
		e.anITC[m] = append(e.anITC[m], idx)
	}

	// Step 5B, split: the unique symptom transition forms the ustset; every
	// other ITC member is a transfer candidate, internal ones additionally
	// output candidates.
	a.FTCtr = make([][]cfsm.Ref, n)
	a.FTCco = make([][]cfsm.Ref, n)
	e.anFTCtr = scratchSets(e.anFTCtr, n)
	e.anFTCco = scratchSets(e.anFTCco, n)
	for m := 0; m < n; m++ {
		for _, idx := range e.anITC[m] {
			if idx == ustIdx {
				a.UstSet = append(a.UstSet, p.Ref(idx))
				continue
			}
			a.FTCtr[m] = append(a.FTCtr[m], p.Ref(idx))
			e.anFTCtr[m] = append(e.anFTCtr[m], idx)
			if p.trans[idx].Internal() {
				a.FTCco[m] = append(a.FTCco[m], p.Ref(idx))
				e.anFTCco[m] = append(e.anFTCco[m], idx)
			}
		}
	}

	// Step 5B, verify: findendingstates over FTCtr and the ust (the DESIGN
	// §3 amendment), ustprocessing, and inttransproc over FTCco. Map entries
	// are assigned for every candidate — nil when no hypothesis survives —
	// matching the interpreted entry-presence semantics; the map the flag
	// (or the relation) leaves unused stays empty but non-nil, as
	// interpreted.
	ev := &evidence{s: s, obsC: obsC, obs: observed, rel: rel}
	combined := a.Flag || rel != nil
	nTr, nCo := len(a.UstSet), 0
	for m := 0; m < n; m++ {
		nTr += len(e.anFTCtr[m])
		nCo += len(e.anFTCco[m])
	}
	a.EndStates = make(map[cfsm.Ref][]cfsm.State, nTr)
	if combined {
		a.StatOut = make(map[cfsm.Ref][]StateOutput, nCo+len(a.UstSet))
		a.Outputs = make(map[cfsm.Ref][]cfsm.Symbol)
	} else {
		a.StatOut = make(map[cfsm.Ref][]StateOutput)
		a.Outputs = make(map[cfsm.Ref][]cfsm.Symbol, nCo+len(a.UstSet))
	}
	for m := 0; m < n; m++ {
		for _, idx := range e.anFTCtr[m] {
			a.EndStates[p.Ref(idx)] = e.endStates(ev, idx)
		}
	}
	if len(a.UstSet) > 0 {
		r := a.UstSet[0]
		a.EndStates[r] = e.endStates(ev, ustIdx)
		switch {
		case rel != nil:
			a.StatOut[r] = e.coStatOut(ev, ustIdx)
		case a.Flag:
			a.StatOut[r] = e.statOut(ev, ustIdx, []cfsm.Symbol{uso})
		default:
			a.Outputs[r] = e.ustOutputs(ev, ustIdx, uso)
		}
	}
	for m := 0; m < n; m++ {
		for _, idx := range e.anFTCco[m] {
			r := p.Ref(idx)
			if combined {
				a.StatOut[r] = e.coStatOut(ev, idx)
			} else {
				a.Outputs[r] = e.coOutputs(ev, idx)
			}
		}
	}
	return a, nil
}

// analysisBits returns the engine's two transition-indexed bitset scratch
// buffers, sized for the bound program; their storage outlives a rebinding.
func (e *Engine) analysisBits() (inter, cur Bits) {
	n := (len(e.p.trans) + 63) / 64
	if cap(e.anInter) < n {
		e.anInter, e.anCur = NewBits(len(e.p.trans)), NewBits(len(e.p.trans))
	}
	e.anInter, e.anCur = e.anInter[:n], e.anCur[:n]
	return e.anInter, e.anCur
}

// scratchSets resizes a per-machine index scratch to n empty lists, reusing
// the backing arrays.
func scratchSets(buf [][]int32, n int) [][]int32 {
	if cap(buf) < n {
		buf = make([][]int32, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = buf[i][:0]
	}
	return buf
}

// endStates computes EndStates(T_k) — the states s ≠ NextState(T_k) whose
// pure transfer hypothesis explains all observations — by overlaying the
// transition's next state directly (state-ID order equals the interpreted
// sorted States() order).
func (e *Engine) endStates(ev *evidence, idx int32) []cfsm.State {
	p := e.p
	t := p.trans[idx]
	mp := &p.machines[t.Machine]
	var out []cfsm.State
	for sid := int32(0); sid < mp.numStates; sid++ {
		if sid == t.To {
			continue
		}
		if e.explainsOverlay(ev, Overlay{t: idx, output: t.Output, to: sid, dest: t.Dest}) {
			out = append(out, mp.states[sid])
		}
	}
	return out
}

// ustOutputs computes outputs(ust) for the single candidate faulty output
// uso (the observed unique symptom output). The interpreted skip and
// validation rules apply: ε, the empty symbol, the specified output and
// outputs foreign to the class alphabet survive nothing.
func (e *Engine) ustOutputs(ev *evidence, idx int32, uso cfsm.Symbol) []cfsm.Symbol {
	p := e.p
	t := p.trans[idx]
	oid, ok := e.legalAltOutput(idx, uso)
	if !ok {
		return nil
	}
	if e.explainsOverlay(ev, Overlay{t: idx, output: oid, to: t.To, dest: t.Dest}) {
		return []cfsm.Symbol{p.syms[oid]}
	}
	return nil
}

// legalAltOutput resolves a candidate faulty output against the interpreted
// skip rules (ε, empty, the specified output) and the transition's class
// alphabet; ok=false means the hypothesis space is empty.
func (e *Engine) legalAltOutput(idx int32, o cfsm.Symbol) (int32, bool) {
	if o == cfsm.Epsilon || o == "" {
		return -1, false
	}
	p := e.p
	oid, ok := p.symID[o]
	if !ok || oid == p.trans[idx].Output || !slices.Contains(p.alts(idx), oid) {
		return -1, false
	}
	return oid, true
}

// coOutputs computes outputs(T_k) for an internal-output candidate over its
// full class alphabet (the precompiled altOuts, in the interpreted
// AlternativeOutputs order).
func (e *Engine) coOutputs(ev *evidence, idx int32) []cfsm.Symbol {
	p := e.p
	t := p.trans[idx]
	var out []cfsm.Symbol
	for _, oid := range p.alts(idx) {
		if oid == p.epsID || p.syms[oid] == "" {
			continue
		}
		if e.explainsOverlay(ev, Overlay{t: idx, output: oid, to: t.To, dest: t.Dest}) {
			out = append(out, p.syms[oid])
		}
	}
	return out
}

// coStatOut computes statout(T_k) over the transition's full class
// alphabet: the internal-output candidates' combined space, and the unique
// symptom transition's under a relation.
func (e *Engine) coStatOut(ev *evidence, idx int32) []StateOutput {
	p := e.p
	var out []StateOutput
	for _, oid := range p.alts(idx) {
		if oid == p.epsID || p.syms[oid] == "" {
			continue
		}
		out = e.appendStatOut(out, ev, idx, oid)
	}
	return out
}

// statOut computes statout(T_k) over the given candidate faulty outputs,
// each resolved by legalAltOutput: the ust's under the flag (its observed
// output alone) and the combined-fault escalation's.
func (e *Engine) statOut(ev *evidence, idx int32, outputs []cfsm.Symbol) []StateOutput {
	var out []StateOutput
	for _, o := range outputs {
		if oid, ok := e.legalAltOutput(idx, o); ok {
			out = e.appendStatOut(out, ev, idx, oid)
		}
	}
	return out
}

// appendStatOut appends the surviving couples (s, o) of output oid, over
// every state of the transition's machine in the interpreted sorted order;
// the s = NextState couple degenerates to the pure output hypothesis (the
// same overlay).
func (e *Engine) appendStatOut(out []StateOutput, ev *evidence, idx, oid int32) []StateOutput {
	p := e.p
	t := p.trans[idx]
	mp := &p.machines[t.Machine]
	for sid := int32(0); sid < mp.numStates; sid++ {
		if e.explainsOverlay(ev, Overlay{t: idx, output: oid, to: sid, dest: t.Dest}) {
			out = append(out, StateOutput{State: mp.states[sid], Output: p.syms[oid]})
		}
	}
	return out
}
