package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/trace"
)

// engine is the execution substrate behind the pipeline: Steps 1–5B of the
// analysis including hypothesis verification, the escalations' verifiers,
// behavioural variant execution, and the Step-6 transfer/distinguishing
// searches. Every comparison of a prediction with recorded observations
// goes through the analysis' observation matcher (exact equality without
// one). The pipeline's control flow — Step 5C, the refinement rounds,
// escalations and verdicts — never depends on which engine runs underneath.
//
// Production has one engine: every diagnosis runs on compiled.Engine (dense
// tables, one-cell fault overlays, configurations as vectors of state IDs),
// which accepts every validated specification and verifies hypotheses under
// every observation relation. The interface is the seam that lets core's
// tests run the same control flow on the interpreted reference engine, which
// lives in the test files with its own Steps 1–5B and which the
// differential tests compare the compiled engine against.
//
// An engine is bound to one specification and, like compiled.Engine, to one
// goroutine at a time.
type engine interface {
	// analyze runs Steps 1–5B into a, which Analyze has initialized (Spec,
	// Suite, Observed, matcher and empty non-nil maps), feeding the
	// specification's runs to simCase when tr is enabled.
	analyze(a *Analysis, tr *trace.Tracer) error
	// explains reports whether injecting f into the specification makes
	// every test case of a's suite predict observations a's matcher accepts
	// for the recorded ones. Faults that fail validation explain nothing.
	explains(a *Analysis, f fault.Fault) bool
	// statOut computes statout(r) over the candidate faulty outputs: the
	// couples (s, o) whose combined hypothesis — the pure output hypothesis
	// when s is r's specified next state — explains a's observations,
	// output-major in candidate order with states in sorted order.
	statOut(a *Analysis, r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput
	// variant returns an executable handle for the specification rewired
	// with f, or for the specification itself when f is nil. The error
	// mirrors fault.Fault.Apply's validation.
	variant(f *fault.Fault) (variantRunner, error)
	// transferToState finds a shortest avoid-respecting input sequence from
	// the initial configuration to any global configuration in which the
	// given machine is in the target state.
	transferToState(machine int, target cfsm.State, avoid cfsm.RefSet) ([]cfsm.Input, bool)
	// distinguish finds a shortest avoid-respecting input sequence whose
	// observation sequences differ between two variants from the
	// configurations they reached; with projected set the difference must
	// be visible to local observers and globalOnly reports a silence-only
	// one.
	distinguish(a, b variantAt, avoid cfsm.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool)
	// bind returns the engine that runs a diagnosis of spec, or false when
	// this engine was built for another specification.
	bind(spec *cfsm.System) (engine, bool)
}

// variantRunner is one behavioural hypothesis — the specification or a
// rewired copy — executable from its initial configuration.
type variantRunner interface {
	// Run executes a test case (cfsm.System.Run semantics).
	Run(tc cfsm.TestCase) ([]cfsm.Observation, error)
	// RunInputs executes the inputs and additionally returns the reached
	// configuration, for distinguish: per machine, the index of its state
	// in Machine.States (compiled.Variant.RunInputs).
	RunInputs(inputs []cfsm.Input) ([]cfsm.Observation, []int32, error)
}

// variantAt pairs a variant with a configuration it reached.
type variantAt struct {
	v   variantRunner
	cfg []int32
}

// newEngine builds the compiled engine for a specification.
func newEngine(spec *cfsm.System) engine {
	e, err := compiled.NewEngine(spec)
	if err != nil {
		panic(err) // NewEngine fails only on a nil specification
	}
	return compiledEngine{e}
}

// engine resolves the analysis' execution engine, building it from the
// specification for hand-built Analyses (tests, replay).
func (a *Analysis) engine() engine {
	if a.eng == nil {
		a.eng = newEngine(a.Spec)
	}
	return a.eng
}

// compiledEngine runs the pipeline on a compiled.Engine.
type compiledEngine struct {
	e *compiled.Engine
}

// analyze runs Steps 1–5B on the compiled tables. With tracing on, the
// compiled suite's specification runs go to the sim.* emitter case by case
// up to the first failure, exactly as the interpreted analysis reports them.
func (c compiledEngine) analyze(a *Analysis, tr *trace.Tracer) error {
	if tr.Enabled() {
		for i, tc := range a.Suite {
			exp, steps, err := c.e.RunTrace(a.Suite, i)
			simCase(tr, a.Spec, tc, exp, steps, err)
			if err != nil || len(a.Observed[i]) != len(exp) {
				break
			}
		}
	}
	r, err := c.e.Analyze(a.Suite, a.Observed, a.matcher)
	if err != nil {
		return err
	}
	a.Expected, a.FirstSymptom, a.UST, a.USO, a.Flag = r.Expected, r.FirstSymptom, r.UST, r.USO, r.Flag
	if len(r.Symptoms) == 0 {
		return nil
	}
	a.Symptoms = make([]Symptom, len(r.Symptoms))
	for i, s := range r.Symptoms {
		a.Symptoms[i] = Symptom{Case: s.Case, Step: s.Step, Transition: s.Transition,
			Expected: a.Expected[s.Case][s.Step], Observed: a.Observed[s.Case][s.Step]}
	}
	for i, sets := range r.Conflicts {
		a.Conflicts[i] = sets
	}
	a.ITC, a.UstSet, a.FTCtr, a.FTCco = r.ITC, r.UstSet, r.FTCtr, r.FTCco
	a.EndStates, a.Outputs, a.StatOut = r.EndStates, r.Outputs, r.StatOut
	return nil
}

func (c compiledEngine) explains(a *Analysis, f fault.Fault) bool {
	return c.e.Explains(a.Suite, a.Observed, f, a.matcher)
}

func (c compiledEngine) statOut(a *Analysis, r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput {
	return c.e.StatOut(a.Suite, a.Observed, r, candidates, a.matcher)
}

func (c compiledEngine) variant(f *fault.Fault) (variantRunner, error) {
	v, err := c.e.Variant(f)
	if err != nil {
		return nil, err
	}
	return v, nil
}

func (c compiledEngine) transferToState(machine int, target cfsm.State, avoid cfsm.RefSet) ([]cfsm.Input, bool) {
	return c.e.TransferToState(machine, target, avoid)
}

func (c compiledEngine) distinguish(a, b variantAt, avoid cfsm.RefSet, projected bool) ([]cfsm.Input, bool, bool) {
	return c.e.Distinguish(a.v.(compiled.Variant), a.cfg, b.v.(compiled.Variant), b.cfg, avoid, projected)
}

func (c compiledEngine) bind(spec *cfsm.System) (engine, bool) {
	return c, c.e.Program().System() == spec
}

// engineFor resolves the engine a diagnosis of spec runs on: the caller's
// engine when it was built for spec, and otherwise a fresh one (newEngine).
func (s *settings) engineFor(spec *cfsm.System) engine {
	if s.engine != nil {
		if e, ok := s.engine.bind(spec); ok {
			return e
		}
	}
	return newEngine(spec)
}

// buildsEngine reports whether engineFor(spec) builds a fresh engine rather
// than binding the caller's.
func (s *settings) buildsEngine(spec *cfsm.System) bool {
	if s.engine == nil {
		return true
	}
	_, ok := s.engine.bind(spec)
	return !ok
}

// releaseEngine hands a compiled engine core built itself back to
// compiled.EngineFor's pool and forgets it; Analysis.engine builds a new one
// for any later use.
func (a *Analysis) releaseEngine() {
	if c, ok := a.eng.(compiledEngine); ok {
		c.e.Release()
	}
	a.eng = nil
}
