package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// engine is the execution substrate behind the pipeline: Steps 1–5B of the
// analysis, hypothesis verification (explains), behavioural variant
// execution, and the Step-6 transfer/distinguishing searches. The pipeline's
// control flow — Step 5C, the refinement rounds, escalations and verdicts —
// never depends on which engine runs underneath, so both engines over the
// same specification produce byte-for-byte identical Analyses and
// Localizations.
//
// Every diagnosis of a specification whose global configuration space packs
// (compiled.Program.Packable) runs on the compiled engine: dense tables,
// one-cell fault overlays and packed configurations. The interpreted engine
// runs the string-keyed cfsm.System directly; it is the documented fallback
// for specifications that do not pack, and the reference the differential
// tests compare the compiled engine against (named with WithEngine(nil)).
//
// An engine is bound to one specification and, like compiled.Engine, to one
// goroutine at a time.
type engine interface {
	// analyze runs Steps 1–5B into a, which Analyze has initialized (Spec,
	// Suite, Observed, matcher and empty non-nil maps).
	analyze(a *Analysis, tr *trace.Tracer) error
	// explains reports whether injecting f into the specification makes
	// every test case of the suite reproduce the matching observation
	// sequence exactly. Faults that fail validation explain nothing.
	explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool
	// variant returns an executable handle for the specification rewired
	// with f, or for the specification itself when f is nil. The error
	// mirrors fault.Fault.Apply's validation.
	variant(f *fault.Fault) (variantRunner, error)
	// transferToState finds a shortest avoid-respecting input sequence from
	// the initial configuration to any global configuration in which the
	// given machine is in the target state (testgen.TransferToState).
	transferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool)
	// distinguish finds a shortest avoid-respecting input sequence whose
	// observation sequences differ between two variants from the positions
	// they reached (testgen.Distinguish); with projected set the difference
	// must be visible to local observers and globalOnly reports a
	// silence-only one (testgen.ProjectionDistinguish).
	distinguish(a, b variantAt, avoid testgen.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool)
}

// variantRunner is one behavioural hypothesis — the specification or a
// rewired copy — executable from its initial configuration.
type variantRunner interface {
	// Run executes a test case (cfsm.System.Run semantics).
	Run(tc cfsm.TestCase) ([]cfsm.Observation, error)
	// runInputs executes the inputs and additionally returns the reached
	// position, in the engine's own encoding, for distinguish.
	runInputs(inputs []cfsm.Input) ([]cfsm.Observation, any, error)
}

// variantAt pairs a variant with a position it reached.
type variantAt struct {
	v   variantRunner
	pos any
}

// newEngine builds the engine for a specification: compiled when its
// configuration space packs, interpreted otherwise.
func newEngine(spec *cfsm.System) engine {
	if e, err := compiled.NewEngine(spec); err == nil {
		return compiledEngine{e}
	}
	return systemEngine{spec: spec}
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

// analyze runs Steps 1–5 on the compiled tables. The compiled simulation
// emits no sim.* step events, so with tracing on the specification is
// additionally run through cfsm.System.RunTraced, case by case up to the
// first failure, exactly as the interpreted analysis does. Under an
// observation matcher the compiled verification (exact equality) is skipped
// and core's verification runs over compiled variants instead.
func (c compiledEngine) analyze(a *Analysis, tr *trace.Tracer) error {
	if tr.Enabled() {
		for i, tc := range a.Suite {
			exp, _, err := a.Spec.RunTraced(tc, tr)
			if err != nil || len(a.Observed[i]) != len(exp) {
				break
			}
		}
	}
	r, err := c.e.Analyze(a.Suite, a.Observed, a.matcher == nil)
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
	if a.matcher != nil {
		a.verifyHypotheses()
		return nil
	}
	a.EndStates, a.Outputs = r.EndStates, r.Outputs
	for ref, sos := range r.StatOut {
		var conv []StateOutput
		if sos != nil {
			conv = make([]StateOutput, len(sos))
			for i, so := range sos {
				conv[i] = StateOutput(so)
			}
		}
		a.StatOut[ref] = conv
	}
	return nil
}

func (c compiledEngine) explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool {
	return c.e.Explains(suite, observed, f)
}

func (c compiledEngine) variant(f *fault.Fault) (variantRunner, error) {
	v, err := c.e.Variant(f)
	if err != nil {
		return nil, err
	}
	return compiledVariant{v}, nil
}

func (c compiledEngine) transferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	return c.e.TransferToState(machine, target, avoid)
}

func (c compiledEngine) distinguish(a, b variantAt, avoid testgen.RefSet, projected bool) ([]cfsm.Input, bool, bool) {
	return c.e.Distinguish(a.v.(compiledVariant).Variant, a.pos.(uint64),
		b.v.(compiledVariant).Variant, b.pos.(uint64), avoid, projected)
}

// compiledVariant is a compiled.Variant; its position is the packed
// configuration.
type compiledVariant struct {
	compiled.Variant
}

func (v compiledVariant) runInputs(inputs []cfsm.Input) ([]cfsm.Observation, any, error) {
	obs, pos, err := v.RunInputs(inputs)
	return obs, pos, err
}

// systemEngine is the interpreted engine: every operation runs against the
// string-keyed cfsm.System, rewiring a clone per hypothesis.
type systemEngine struct {
	spec *cfsm.System
}

func (e systemEngine) analyze(a *Analysis, tr *trace.Tracer) error {
	return a.analyzeInterpreted(tr)
}

func (e systemEngine) explains(suite []cfsm.TestCase, observed [][]cfsm.Observation, f fault.Fault) bool {
	mutant, err := f.Apply(e.spec)
	if err != nil {
		return false
	}
	for i, tc := range suite {
		predicted, err := mutant.Run(tc)
		if err != nil {
			return false
		}
		if !cfsm.ObsEqual(predicted, observed[i]) {
			return false
		}
	}
	return true
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

func (e systemEngine) transferToState(machine int, target cfsm.State, avoid testgen.RefSet) ([]cfsm.Input, bool) {
	res, ok := testgen.TransferToState(e.spec, machine, target, avoid)
	return res.Inputs, ok
}

func (e systemEngine) distinguish(a, b variantAt, avoid testgen.RefSet, projected bool) ([]cfsm.Input, bool, bool) {
	va := testgen.Variant{Sys: a.v.(systemVariant).sys, Cfg: a.pos.(cfsm.Config)}
	vb := testgen.Variant{Sys: b.v.(systemVariant).sys, Cfg: b.pos.(cfsm.Config)}
	if projected {
		return testgen.ProjectionDistinguish(va, vb, avoid)
	}
	seq, ok := testgen.Distinguish(va, vb, avoid)
	return seq, ok, false
}

// systemVariant executes one hypothesis against its interpreted system.
type systemVariant struct {
	sys *cfsm.System
}

func (v systemVariant) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	return v.sys.Run(tc)
}

func (v systemVariant) runInputs(inputs []cfsm.Input) ([]cfsm.Observation, any, error) {
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
	return obs, cfg, nil
}

// engineFor resolves the engine a diagnosis of spec runs on: the interpreted
// reference when WithEngine(nil) named it, the caller's compiled engine when
// it was built for spec, and otherwise a fresh one (newEngine).
func (s *settings) engineFor(spec *cfsm.System) engine {
	switch {
	case s.reference:
		return systemEngine{spec: spec}
	case s.engine != nil && s.engine.Program().System() == spec:
		return compiledEngine{s.engine}
	}
	return newEngine(spec)
}
