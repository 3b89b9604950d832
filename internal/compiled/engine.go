package compiled

import (
	"fmt"
	"slices"
	"sync"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
)

// Engine executes the diagnosis hot paths against a compiled Program: the
// Steps 1–5B analysis with production's one hypothesis verification
// (Analyze), the escalations' per-hypothesis and per-transition verifiers
// (Explains, StatOut), behavioural variants and the Step-6 searches. Every
// verifier takes the observation Relation as a parameter. internal/core
// builds one per diagnosis, for every validated specification.
// Verdict-level behaviour is byte-for-byte identical to core's interpreted
// reference engine; only the representation differs — dense tables,
// one-cell overlays and vectors of state IDs instead of string-keyed maps
// and system clones.
//
// An Engine is NOT safe for concurrent use: every exported method may read
// and write the scratch fields below (the runner's configuration buffer, the
// suite/observation caches, the Ref memo, the search and analysis scratch),
// none of which are synchronized. The concurrency contract is
// one-goroutine-per-Engine: give each worker its own Engine over a shared,
// immutable Program, the sharing the sweep's worker pool implements and
// TestEngineSharingAcrossWorkers exercises under -race.
//
// The scratch is what a fresh engine pays for: its first pair search alone
// allocates and zeroes a visited array the size of the configuration-pair
// space. A caller done with an engine hands it back with Release, and
// EngineFor rebinds a released engine to the next program asked for, keeping
// the scratch (see enginePool).
type Engine struct {
	p *Program
	r *Runner // scratch runner for explains and variant runs

	// Compiled-suite cache: sweeps call Analyze and Detects with the same
	// base suite for every hypothesis of every mutant. SetSuite installs
	// a suite compiled once per sweep and shared — it is immutable — across
	// every worker engine; otherwise suiteFor compiles lazily, keyed by
	// slice identity.
	csuite    *Suite
	obsKey    *[]cfsm.Observation
	obsLen    int
	observed  [][]cobs
	inBuf     []cin
	searchBuf search
	// pred is the prediction scratch of verification under a Relation.
	pred []cfsm.Observation

	// Analysis scratch (see analysis.go), reused across Analyze calls.
	anInter Bits
	anCur   Bits
	anITC   [][]int32
	anFTCtr [][]int32
	anFTCco [][]int32

	// One-entry memo for the fault.Ref→transition-index map lookup:
	// sweep callers probe every fault of one transition consecutively, and
	// hashing cfsm.Ref map keys shows up in sweep profiles (~6%). Unsynchronized
	// like the rest of the scratch state: safe only under the
	// one-goroutine-per-Engine contract above.
	memoRef   cfsm.Ref
	memoIdx   int32
	memoFound bool
	memoSet   bool
}

// overlayFor is Program.OverlayFor with the Ref lookup memoised (see the
// memo fields above). Behaviour is identical; the differential tests pin it.
func (e *Engine) overlayFor(f fault.Fault) (Overlay, bool) {
	if !e.memoSet || f.Ref != e.memoRef {
		e.memoIdx, e.memoFound = e.p.refIdx[f.Ref]
		e.memoRef = f.Ref
		e.memoSet = true
	}
	if !e.memoFound {
		return Overlay{}, false
	}
	return e.p.overlayAt(e.memoIdx, f)
}

// NewEngine compiles the system and returns an engine over it. It fails only
// on a nil system.
func NewEngine(sys *cfsm.System) (*Engine, error) {
	p, err := Compile(sys)
	if err != nil {
		return nil, err
	}
	return EngineFor(p)
}

// enginePool holds released engines. One pool serves every program: a
// released engine is rebound to whichever program EngineFor is asked for
// next, so the scratch kept stays bounded by the engines in use at once, not
// by the number of programs.
var enginePool sync.Pool

// EngineFor returns an engine over an already-compiled program, sharing the
// program with any number of sibling engines. The engine is a released one
// rebound to p when the pool has one, and otherwise a new one. It fails only
// on a nil program.
func EngineFor(p *Program) (*Engine, error) {
	if p == nil {
		return nil, fmt.Errorf("compiled: nil program")
	}
	e, ok := enginePool.Get().(*Engine)
	if !ok {
		return newEngine(p), nil
	}
	e.bind(p)
	return e, nil
}

func newEngine(p *Program) *Engine { return &Engine{p: p, r: p.NewRunner()} }

// bind points a released engine, and its runner, at p.
func (e *Engine) bind(p *Program) {
	e.p = p
	e.r.p = p
	e.r.cfg = slices.Grow(e.r.cfg[:0], len(p.machines))[:len(p.machines)]
	e.r.SetOverlay(None())
}

// unbind drops the program and every cache keyed by identity.
func (e *Engine) unbind() {
	e.p, e.r.p = nil, nil
	e.csuite, e.obsKey, e.obsLen = nil, nil, 0
	e.memoRef, e.memoSet = cfsm.Ref{}, false
}

// Release hands the engine back to EngineFor's pool. Its program and the
// caches keyed by identity (the installed suite, the compiled observations,
// the Ref memo) are dropped; the search arena, the visited structure and the
// observation and analysis buffers are kept for the next program. Release
// must be called exactly once, by the engine's only owner, after its last
// use: once EngineFor hands the engine out again it belongs to its new
// owner, so neither it nor any Variant of it may be touched after Release.
func (e *Engine) Release() {
	e.unbind()
	enginePool.Put(e)
}

// Program returns the engine's compiled program.
func (e *Engine) Program() *Program { return e.p }

// SetSuite installs a suite compiled once (NewSuite) for reuse by Analyze
// and the verifiers. A sweep compiles the suite a single time and installs it
// on every worker engine; the Suite is immutable, so the sharing is safe.
// The suite must have been compiled against this engine's program.
func (e *Engine) SetSuite(s *Suite) {
	if s != nil && s.p != e.p {
		panic("compiled: SetSuite with a suite of a different program")
	}
	e.csuite = s
}

// suiteFor resolves the compiled form of a suite: the installed/cached one
// when it matches by slice identity, otherwise a fresh compilation (cached
// for the next call — one analysis probes the same suite per hypothesis).
func (e *Engine) suiteFor(suite []cfsm.TestCase) *Suite {
	if e.csuite.Matches(suite) {
		return e.csuite
	}
	e.csuite = NewSuite(e.p, suite)
	return e.csuite
}

// compileObserved lowers the observation sequences, cached by slice
// identity: an analysis and its escalations verify every hypothesis against
// the same observations.
func (e *Engine) compileObserved(observed [][]cfsm.Observation) {
	if len(observed) > 0 && e.obsKey == &observed[0] && e.obsLen == len(observed) {
		return
	}
	for len(e.observed) < len(observed) {
		e.observed = append(e.observed, nil)
	}
	e.observed = e.observed[:len(observed)]
	for i, obs := range observed {
		e.observed[i] = e.p.compileObs(obs, e.observed[i])
	}
	if len(observed) > 0 {
		e.obsKey = &observed[0]
	} else {
		e.obsKey = nil
	}
	e.obsLen = len(observed)
}

// Explains reports whether injecting f makes every suite case predict
// observations related to the matching recorded sequence under rel (nil:
// exact equality) — the compiled form of the interpreted
// apply-and-resimulate check, with the per-mutant system clone replaced by
// an overlay and an early exit on the first unexplained case (the
// comparison is deterministic, so the verdict is unchanged).
func (e *Engine) Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault, rel Relation) bool {
	ov, ok := e.overlayFor(f)
	if !ok {
		return false
	}
	ev := e.evidenceFor(suite, observed, rel)
	return e.explainsOverlay(&ev, ov)
}

// StatOut computes statout(r) over the candidate faulty outputs under rel
// (nil: exact equality): the couples (s, o) whose combined hypothesis — the
// pure output hypothesis when s is r's specified next state — explains
// every case, output-major in candidate order and states in sorted order.
// Candidates the interpreted fault validation rejects (ε, the specified
// output, outputs outside r's class alphabet) yield nothing. The
// combined-fault escalation verifies its widened hypotheses through it.
func (e *Engine) StatOut(suite []cfsm.TestCase, observed [][]cfsm.Observation, r cfsm.Ref, outputs []cfsm.Symbol, rel Relation) []StateOutput {
	idx, ok := e.p.refIdx[r]
	if !ok {
		return nil
	}
	ev := e.evidenceFor(suite, observed, rel)
	return e.statOut(&ev, idx, outputs)
}

// evidenceFor resolves the compiled suite and observations a verification
// runs against.
func (e *Engine) evidenceFor(suite []cfsm.TestCase, observed [][]cfsm.Observation, rel Relation) evidence {
	s := e.suiteFor(suite)
	e.compileObserved(observed)
	return evidence{s: s, obsC: e.observed, obs: observed, rel: rel}
}

// explainsOverlay is Explains after fault lowering: it replays the compiled
// suite under the overlay and compares against the evidence. The compiled
// analysis calls it directly with overlays it synthesizes, skipping the
// per-hypothesis fault construction and validation.
//
// A single-cell overlay on transition t behaves exactly like the
// specification until t first executes, and an overlay never changes when t
// fires (its From/Input guard is not overlaid). The replay therefore skips
// the simulation up to fireStep(t): the prefix is the precomputed expected
// observations, and the simulation resumes from the suite's configuration
// snapshot. A case in which t never executes reduces to the prefix alone.
func (e *Engine) explainsOverlay(ev *evidence, ov Overlay) bool {
	e.r.ov = ov
	defer e.r.Flush()
	for i := range ev.s.cases {
		c := &ev.s.cases[i]
		if ev.rel == nil {
			if !e.replays(c, ev.obsC[i]) {
				return false
			}
		} else if !e.predicts(c, ev.obs[i], ev.rel) {
			return false
		}
	}
	return true
}

// resume positions the scratch runner for case c's replay under its
// overlay and returns the first step to simulate: fireStep of the overlaid
// transition from the suite's snapshot, or 0 from the initial
// configuration when the case has no snapshot.
func (e *Engine) resume(c *suiteCase) int {
	r := e.r
	if r.ov.t < 0 || !c.snap {
		r.restart()
		return 0
	}
	j0 := c.fireStep(r.ov.t)
	if j0 < len(c.inputs) {
		n := len(e.p.machines)
		copy(r.cfg, c.cfgs[j0*n:(j0+1)*n])
	}
	return j0
}

// replays reports whether case c, run under the scratch runner's overlay,
// observes exactly want.
func (e *Engine) replays(c *suiteCase, want []cobs) bool {
	if c.badInput || len(want) != len(c.inputs) {
		return false
	}
	j0 := e.resume(c)
	for j := 0; j < j0; j++ {
		if c.expC[j] != want[j] {
			return false
		}
	}
	for j := j0; j < len(c.inputs); j++ {
		o, _, _, err := e.r.step(c.inputs[j])
		if err != nil || o != want[j] {
			return false
		}
	}
	return true
}

// predicts reports whether the observations case c predicts under the
// scratch runner's overlay — the expected prefix up to the resume step, then
// the overlaid suffix, built in the engine's scratch buffer — relate to
// recorded under rel.
func (e *Engine) predicts(c *suiteCase, recorded []cfsm.Observation, rel Relation) bool {
	if c.badInput || len(recorded) != len(c.inputs) {
		return false
	}
	j0 := e.resume(c)
	pred := append(e.pred[:0], c.exp[:j0]...)
	for j := j0; j < len(c.inputs); j++ {
		o, _, _, err := e.r.step(c.inputs[j])
		if err != nil {
			return false
		}
		pred = append(pred, e.p.decodeObs(o))
	}
	e.pred = pred
	return rel.Equal(pred, recorded)
}

// Detects reports whether case i of the compiled suite, run on the mutant
// that fault f realizes, observes differently from the specification: the
// entry of the suite's detection matrix. A case whose specification run
// failed, and a fault with no legal overlay, detect nothing. The replay
// starts where f's transition first fires (see explainsOverlay), so a case
// that never fires it costs nothing.
func (e *Engine) Detects(s *Suite, i int, f fault.Fault) bool {
	c := &s.cases[i]
	ov, ok := e.overlayFor(f)
	if !ok || !c.snap {
		return false
	}
	e.r.ov = ov
	defer e.r.Flush()
	return !e.replays(c, c.expC)
}

// Variant is a compiled behavioural hypothesis: a transition table of the
// engine's program — the program's own, or a shape-equal copy (VariantOf) —
// under one overlay. It shares the engine's scratch runner, so it follows
// the engine's one-goroutine contract.
type Variant struct {
	e  *Engine
	p  *Program // e.p, or a copy of it with its own transition table
	ov Overlay
}

// Variant returns the executable handle for the specification rewired with
// f (or the specification itself for nil). Validation failures return the
// interpreted fault.Validate error so callers see identical messages.
func (e *Engine) Variant(f *fault.Fault) (Variant, error) {
	if f == nil {
		return Variant{e: e, p: e.p, ov: None()}, nil
	}
	ov, ok := e.overlayFor(*f)
	if !ok {
		if err := f.Validate(e.p.src); err != nil {
			return Variant{}, err
		}
		// An overlay/Validate disagreement would be a compiler defect; the
		// differential tests pin this branch closed.
		return Variant{}, fmt.Errorf("compiled: fault %s has no overlay", f.Describe(e.p.src))
	}
	return Variant{e: e, p: e.p, ov: ov}, nil
}

// VariantOf returns the executable handle for a validated system of the
// specification's shape — the same machines, initial states and states,
// and transitions of the same names on the same (From, Input) keys, as
// every system multifault.Hypothesis.Apply builds — whose transitions may
// differ from the specification's in output, next state and destination.
// Its transition table is a copy of the program's with the k differing
// cells rewritten; every interned table (symbols, states, lookups, inputs)
// is shared. A system of another shape, or with an output symbol the
// specification does not use, is an error.
func (e *Engine) VariantOf(sys *cfsm.System) (Variant, error) {
	p := e.p
	if sys.N() != len(p.machines) {
		return Variant{}, fmt.Errorf("compiled: %d machines, the specification has %d", sys.N(), len(p.machines))
	}
	var trans []Trans // nil until a cell differs
	off := 0
	for i := range p.machines {
		spec, m := p.src.Machine(i), sys.Machine(i)
		if m == spec {
			// Rewire shares every machine it leaves alone.
			off += spec.NumTransitions()
			continue
		}
		mp := &p.machines[i]
		if m.Name() != mp.name || m.Initial() != mp.states[mp.initial] ||
			m.NumTransitions() != spec.NumTransitions() || !slices.Equal(m.States(), mp.states) {
			return Variant{}, fmt.Errorf("compiled: machine %s differs in shape from the specification's", m.Name())
		}
		for idx := off; idx < off+spec.NumTransitions(); idx++ {
			ct := &p.trans[idx]
			t, ok := m.ByName(p.names[idx])
			if !ok || t.From != mp.states[ct.From] || t.Input != p.syms[ct.Input] {
				return Variant{}, fmt.Errorf("compiled: transition %s.%s differs in shape from the specification's", m.Name(), p.names[idx])
			}
			out, to := ct.Output, ct.To
			if t.Output != p.syms[out] {
				var ok bool
				if out, ok = p.symID[t.Output]; !ok {
					return Variant{}, fmt.Errorf("compiled: %s.%s outputs %s, which the specification does not use", m.Name(), t.Name, t.Output)
				}
			}
			if t.To != mp.states[to] {
				to = mp.stateID[t.To]
			}
			if out == ct.Output && to == ct.To && int32(t.Dest) == ct.Dest {
				continue
			}
			if trans == nil {
				trans = slices.Clone(p.trans)
			}
			trans[idx].Output, trans[idx].To, trans[idx].Dest = out, to, int32(t.Dest)
		}
		off += spec.NumTransitions()
	}
	if trans == nil {
		return Variant{e: e, p: p, ov: None()}, nil
	}
	vp := *p
	vp.src, vp.trans = sys, trans
	return Variant{e: e, p: &vp, ov: None()}, nil
}

// runner points the engine's scratch runner at the variant's table and
// overlay. The caller points it back at the engine's table with restore.
func (v Variant) runner() *Runner {
	r := v.e.r
	r.p, r.ov = v.p, v.ov
	return r
}

// restore points the scratch runner back at the engine's program.
func (v Variant) restore() { v.e.r.p = v.e.p }

// Run executes a test case for the variant from the initial configuration.
func (v Variant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	r := v.runner()
	defer v.restore()
	r.restart()
	return r.Run(tc)
}

// RunInputs executes the inputs from the initial configuration and returns
// the reached configuration — one state ID per machine, in a fresh slice —
// for use with Engine.Distinguish.
func (v Variant) RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, []int32, error) {
	e := v.e
	cis, err := e.p.compileInputs(inputs, e.inBuf)
	if err != nil {
		return nil, nil, err
	}
	e.inBuf = cis
	r := v.runner()
	defer v.restore()
	r.restart()
	defer r.Flush()
	obs := make([]cfsm.Observation, 0, len(cis))
	for _, ci := range cis {
		o, _, _, err := r.step(ci)
		if err != nil {
			return nil, nil, err
		}
		obs = append(obs, e.p.decodeObs(o))
	}
	return obs, append([]int32(nil), r.cfg...), nil
}

// Explains reports whether the variant, run from the initial configuration,
// observes exactly the recorded sequence on every case of the suite: the
// hypothesis verification of the multi-fault extension.
func (v Variant) Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation) bool {
	ev := v.e.evidenceFor(suite, observed, nil)
	v.e.r.p = v.p
	defer v.restore()
	return v.e.explainsOverlay(&ev, v.ov)
}

// TransferToState finds a shortest avoid-respecting input sequence from the
// initial configuration to any configuration with the given machine in the
// target state: Step 6's transfer sequence.
func (e *Engine) TransferToState(machine int, target cfsm.State, avoid cfsm.RefSet) ([]cfsm.Input, bool) {
	g := goal{machine: machine, state: -1}
	if id, ok := e.p.machines[machine].stateID[target]; ok {
		g.state = id
	}
	return e.transferSearch(e.p.start, g, avoid)
}

// Distinguish finds a shortest avoid-respecting input sequence separating
// two variants from the configurations they reached (RunInputs). When
// projected is set only a difference at which some side emits a non-silent
// output counts — one every local observer of a distributed test sees — and
// globalOnly reports that a silence-only difference was seen instead. Both
// variants must come from this engine.
func (e *Engine) Distinguish(a Variant, ca []int32, b Variant, cb []int32, avoid cfsm.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool) {
	return e.distinguishSearch(a, ca, b, cb, avoid, projected, 0, int32(len(e.p.inputs)))
}

// DistinguishPort is Distinguish over the inputs of one port only, with no
// avoid set: a single-port sequence is free of cross-port races, so under
// unsynchronized ports it is the one kind of test that behaves
// deterministically.
func (e *Engine) DistinguishPort(port int, a Variant, ca []int32, b Variant, cb []int32) ([]cfsm.Input, bool) {
	seq, ok, _ := e.distinguishSearch(a, ca, b, cb, nil, false, e.p.portInputs[port], e.p.portInputs[port+1])
	return seq, ok
}

// Equivalent reports whether the mutants realized by two faults — nil
// standing for the specification itself — are observationally equivalent:
// no input sequence from the initial configuration separates them.
// A fault with no legal overlay realizes no mutant and is equivalent to
// nothing.
func (e *Engine) Equivalent(a, b *fault.Fault) bool {
	va, errA := e.Variant(a)
	vb, errB := e.Variant(b)
	if errA != nil || errB != nil {
		return false
	}
	_, distinguishable, _ := e.Distinguish(va, e.p.start, vb, e.p.start, nil, false)
	return !distinguishable
}
