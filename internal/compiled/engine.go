package compiled

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
)

// Engine executes the diagnosis hot paths against a compiled Program: the
// Steps 1–5 analysis (Analyze), hypothesis verification (Explains),
// behavioural variants and the Step-6 searches. internal/core builds one per
// diagnosis of a packable specification. Verdict-level behaviour is
// byte-for-byte identical to core's interpreted reference engine; only the
// representation differs — dense tables, one-cell overlays and packed
// integer configurations instead of string-keyed maps and system clones.
//
// An Engine is NOT safe for concurrent use: every exported method may read
// and write the scratch fields below (the runner's configuration buffer, the
// suite/observation caches, the Ref memo, the search and analysis scratch),
// none of which are synchronized. The concurrency contract is
// one-goroutine-per-Engine: give each worker its own Engine over a shared,
// immutable Program (EngineFor is cheap), the sharing the sweep's worker
// pool implements and TestEngineSharingAcrossWorkers exercises under -race.
type Engine struct {
	p *Program
	r *Runner // scratch runner for explains and variant runs

	// Compiled-suite cache: sweeps call Explains (and AnalyzeInto) with the
	// same base suite for every hypothesis of every mutant. SetSuite installs
	// a suite compiled once per sweep and shared — it is immutable — across
	// every worker engine; otherwise suiteFor compiles lazily, keyed by
	// slice identity.
	csuite    *Suite
	obsKey    *[]cfsm.Observation
	obsLen    int
	observed  [][]cobs
	inBuf     []cin
	searchBuf search

	// Analysis scratch (see analysis.go), reused across AnalyzeInto calls.
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

// NewEngine compiles the system and returns an engine over it. It fails
// when the global configuration space cannot be packed into the integer
// keys the searches require (see Program.Packable); internal/core then runs
// its interpreted reference engine instead.
func NewEngine(sys *cfsm.System) (*Engine, error) {
	p, err := Compile(sys)
	if err != nil {
		return nil, err
	}
	return EngineFor(p)
}

// EngineFor returns an engine over an already-compiled program, sharing the
// program with any number of sibling engines.
func EngineFor(p *Program) (*Engine, error) {
	if !p.Packable() {
		return nil, fmt.Errorf("compiled: global state space of %d machines exceeds %d packed configurations",
			p.N(), maxPackedConfigs)
	}
	return &Engine{p: p, r: p.NewRunner()}, nil
}

// Program returns the engine's compiled program.
func (e *Engine) Program() *Program { return e.p }

// SetSuite installs a suite compiled once (NewSuite) for reuse by Explains
// and AnalyzeInto. A sweep compiles the suite a single time and installs it
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
// identity: one analysis calls Explains once per hypothesis with the same
// observations.
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

// Explains reports whether injecting f makes every suite case reproduce the
// matching observation sequence — the compiled form of the interpreted
// apply-and-resimulate check, with the per-mutant system clone replaced by
// an overlay and an early exit on the first divergent observation (the
// comparison is deterministic, so the verdict is unchanged).
func (e *Engine) Explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool {
	ov, ok := e.overlayFor(f)
	if !ok {
		return false
	}
	s := e.suiteFor(suite)
	e.compileObserved(observed)
	return e.explainsOverlay(s, e.observed, ov)
}

// explainsOverlay is Explains after fault lowering: it replays the compiled
// suite under the overlay and compares against the compiled observations.
// The compiled analysis (AnalyzeInto) calls it directly with overlays it
// synthesizes, skipping the per-hypothesis fault construction and validation.
//
// A single-cell overlay on transition t behaves exactly like the
// specification until t first executes, and an overlay never changes when t
// fires (its From/Input guard is not overlaid). The replay therefore skips
// the simulation up to fireStep(t): the prefix is compared against the
// precomputed expected observations, and the simulation resumes from the
// suite's configuration snapshot. A case in which t never executes reduces
// to the prefix comparison alone.
func (e *Engine) explainsOverlay(s *Suite, observed [][]cobs, ov Overlay) bool {
	r := e.r
	r.ov = ov
	defer r.Flush()
	n := len(e.p.machines)
	for i := range s.cases {
		c := &s.cases[i]
		if c.badInput {
			return false
		}
		want := observed[i]
		if len(want) != len(c.inputs) {
			return false
		}
		j0 := 0
		if ov.t >= 0 && c.snap {
			j0 = c.fireStep(ov.t)
			for j := 0; j < j0; j++ {
				if c.expC[j] != want[j] {
					return false
				}
			}
			if j0 == len(c.inputs) {
				continue
			}
			copy(r.cfg, c.cfgs[j0*n:(j0+1)*n])
		} else {
			r.restart()
		}
		for j := j0; j < len(c.inputs); j++ {
			o, _, _, err := r.step(c.inputs[j])
			if err != nil {
				return false
			}
			if o != want[j] {
				return false
			}
		}
	}
	return true
}

// Variant is a compiled behavioural hypothesis: the engine's program under
// one overlay. It shares the engine's scratch runner, so it follows the
// engine's one-goroutine contract.
type Variant struct {
	e  *Engine
	ov Overlay
}

// Variant returns the executable handle for the specification rewired with
// f (or the specification itself for nil). Validation failures return the
// interpreted fault.Validate error so callers see identical messages.
func (e *Engine) Variant(f *fault.Fault) (Variant, error) {
	if f == nil {
		return Variant{e: e, ov: None()}, nil
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
	return Variant{e: e, ov: ov}, nil
}

// Run executes a test case for the variant from the initial configuration.
func (v Variant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	r := v.e.r
	r.ov = v.ov
	r.restart()
	return r.Run(tc)
}

// RunInputs executes the inputs from the initial configuration and returns
// the reached configuration, packed, for use with Engine.Distinguish.
func (v Variant) RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, uint64, error) {
	e := v.e
	cis, err := e.p.compileInputs(inputs, e.inBuf)
	if err != nil {
		return nil, 0, err
	}
	e.inBuf = cis
	r := e.r
	r.ov = v.ov
	r.restart()
	defer r.Flush()
	var obs []cfsm.Observation
	for _, ci := range cis {
		o, _, _, err := r.step(ci)
		if err != nil {
			return nil, 0, err
		}
		obs = append(obs, e.p.decodeObs(o))
	}
	return obs, e.p.pack(r.cfg), nil
}

// TransferToState finds a shortest avoid-respecting input sequence from the
// initial configuration to any configuration with the given machine in the
// target state (testgen.TransferToState over the specification).
func (e *Engine) TransferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	goal := int32(-1)
	if id, ok := e.p.machines[machine].stateID[target]; ok {
		goal = id
	}
	return e.transferSearch(machine, goal, avoid)
}

// Distinguish finds a shortest avoid-respecting input sequence separating
// two variants from the packed configurations they reached (RunInputs):
// testgen.Distinguish over the overlaid programs, or, when projected is set,
// testgen.ProjectionDistinguish — only a difference at which some side
// emits a non-silent output counts, and globalOnly reports that a
// silence-only difference was seen instead. Both variants must come from
// this engine.
func (e *Engine) Distinguish(a Variant, pa uint64, b Variant, pb uint64, avoid testgen.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool) {
	return e.distinguishSearch(a.ov, pa, b.ov, pb, avoid, projected)
}

// Equivalent reports whether the mutants realized by two faults — nil
// standing for the specification itself — are observationally equivalent:
// the compiled form of testgen.SystemsEquivalent over the applied systems.
// A fault with no legal overlay realizes no mutant and is equivalent to
// nothing.
func (e *Engine) Equivalent(a, b *fault.Fault) bool {
	ovs := [2]Overlay{None(), None()}
	for i, f := range [2]*fault.Fault{a, b} {
		if f == nil {
			continue
		}
		ov, ok := e.overlayFor(*f)
		if !ok {
			return false
		}
		ovs[i] = ov
	}
	_, distinguishable, _ := e.distinguishSearch(ovs[0], e.p.initialP, ovs[1], e.p.initialP, nil, false)
	return !distinguishable
}
