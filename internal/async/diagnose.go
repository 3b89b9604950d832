package async

import (
	"fmt"
	"math/rand"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
)

// Oracle executes unsynchronized scripts against the implementation under
// test. Each execution yields one outcome — whichever interleaving the
// environment happened to produce.
type Oracle interface {
	Execute(script Script) (Outcome, error)
}

// RandomOracle is an Oracle backed by a (typically mutated) system; it
// resolves the input races with a seeded pseudo-random scheduler, so runs
// are reproducible.
type RandomOracle struct {
	Sys     *cfsm.System
	Rng     *rand.Rand
	Scripts int
	Inputs  int
}

var _ Oracle = (*RandomOracle)(nil)

// Execute runs the script, choosing a random ready port at each step.
func (o *RandomOracle) Execute(script Script) (Outcome, error) {
	if len(script.Inputs) != o.Sys.N() {
		return Outcome{}, fmt.Errorf("async: script has %d ports for %d machines", len(script.Inputs), o.Sys.N())
	}
	o.Scripts++
	o.Inputs += script.TotalInputs()
	cfg := o.Sys.InitialConfig()
	pos := make([]int, o.Sys.N())
	streams := make([][]cfsm.Symbol, o.Sys.N())
	for {
		var ready []int
		for port := range pos {
			if pos[port] < len(script.Inputs[port]) {
				ready = append(ready, port)
			}
		}
		if len(ready) == 0 {
			return Outcome{Streams: streams}, nil
		}
		port := ready[0]
		if o.Rng != nil && len(ready) > 1 {
			port = ready[o.Rng.Intn(len(ready))]
		}
		in := cfsm.Input{Port: port, Sym: script.Inputs[port][pos[port]]}
		next, obs, _, err := o.Sys.Apply(cfg, in)
		if err != nil {
			return Outcome{}, err
		}
		cfg = next
		pos[port]++
		streams[obs.Port] = append(streams[obs.Port], obs.Sym)
	}
}

// Analysis is the conservative candidate generation under nondeterminism.
type Analysis struct {
	Spec     *cfsm.System
	Scripts  []Script
	Observed []Outcome
	// Detected reports that at least one observation is impossible under
	// the specification.
	Detected bool
	// Candidates are the transitions executed in at least one interleaving
	// of at least one script.
	Candidates []cfsm.Ref
	// Hypotheses are the single-transition faults under which every
	// observed outcome is possible.
	Hypotheses []fault.Fault
}

// Analyze performs the conservative nondeterministic analysis: the fault is
// detected when some observed outcome is impossible under the specification,
// and a fault hypothesis survives when every observed outcome is possible
// under the rewired specification.
func Analyze(spec *cfsm.System, scripts []Script, observed []Outcome) (*Analysis, error) {
	if len(observed) != len(scripts) {
		return nil, fmt.Errorf("async: %d outcomes for %d scripts", len(observed), len(scripts))
	}
	a := &Analysis{Spec: spec, Scripts: scripts, Observed: observed}

	executedAll := make(map[cfsm.Ref]bool)
	for i, script := range scripts {
		set, executed, err := Outcomes(spec, script)
		if err != nil {
			return nil, fmt.Errorf("async: script %d: %w", i, err)
		}
		for r := range executed {
			executedAll[r] = true
		}
		if !set.Contains(observed[i]) {
			a.Detected = true
		}
	}
	for _, r := range spec.Refs() {
		if executedAll[r] {
			a.Candidates = append(a.Candidates, r)
		}
	}
	if !a.Detected {
		return a, nil
	}

	for _, f := range fault.Enumerate(spec) {
		if !executedAll[f.Ref] {
			continue
		}
		mutant, err := f.Apply(spec)
		if err != nil {
			continue
		}
		consistent := true
		for i, script := range scripts {
			ok, err := Possible(mutant, script, observed[i])
			if err != nil {
				return nil, fmt.Errorf("async: hypothesis %s: %w", f.Describe(spec), err)
			}
			if !ok {
				consistent = false
				break
			}
		}
		if consistent {
			a.Hypotheses = append(a.Hypotheses, f)
		}
	}
	return a, nil
}

// Localization is the adaptive outcome of the nondeterministic diagnosis.
type Localization struct {
	Analysis  *Analysis
	Verdict   core.Verdict
	Localized *fault.Fault
	Remaining []fault.Fault
	Probes    []Script
}

// Localize discriminates the surviving hypotheses with single-port probes,
// which are race-free and hence deterministic: for a pair of variants it
// searches a distinguishing input sequence confined to one port, executes it
// as a script, and eliminates the variants whose (deterministic) prediction
// disagrees with the observation. Hypotheses distinguishable only through
// cross-port races remain in Remaining and the verdict is ambiguous.
func Localize(a *Analysis, oracle Oracle) (*Localization, error) {
	loc := &Localization{Analysis: a}
	if !a.Detected {
		loc.Verdict = core.VerdictNoFault
		return loc, nil
	}
	if len(a.Hypotheses) == 0 {
		loc.Verdict = core.VerdictInconsistent
		return loc, nil
	}

	eng, err := compiled.NewEngine(a.Spec)
	if err != nil {
		return nil, err
	}
	defer eng.Release()
	type variantT struct {
		f *fault.Fault
		v compiled.Variant
	}
	spec, _ := eng.Variant(nil)
	_, start, _ := spec.RunInputs(nil)
	live := []variantT{{f: nil, v: spec}}
	for i := range a.Hypotheses {
		if v, err := eng.Variant(&a.Hypotheses[i]); err == nil {
			live = append(live, variantT{f: &a.Hypotheses[i], v: v})
		}
	}

	for len(live) > 1 {
		var probe *Script
		var probeSeq []cfsm.Input
		for i := 0; i < len(live) && probe == nil; i++ {
			for j := i + 1; j < len(live) && probe == nil; j++ {
				for port := 0; port < a.Spec.N(); port++ {
					seq, ok := eng.DistinguishPort(port, live[i].v, start, live[j].v, start)
					if !ok {
						continue
					}
					syms := make([]cfsm.Symbol, len(seq))
					for k, in := range seq {
						syms[k] = in.Sym
					}
					s := SinglePort(a.Spec.N(), port, syms)
					s.Name = fmt.Sprintf("probe-%d", len(loc.Probes)+1)
					probe = &s
					probeSeq = seq
					break
				}
			}
		}
		if probe == nil {
			break
		}
		observed, err := oracle.Execute(*probe)
		if err != nil {
			return nil, fmt.Errorf("async: execute %s: %w", probe.Name, err)
		}
		loc.Probes = append(loc.Probes, *probe)
		var next []variantT
		for _, v := range live {
			if predictSinglePort(v.v, a.Spec.N(), probeSeq).Equal(observed) {
				next = append(next, v)
			}
		}
		live = next
	}

	switch {
	case len(live) == 0:
		loc.Verdict = core.VerdictInconsistent
	case len(live) == 1 && live[0].f == nil:
		loc.Verdict = core.VerdictInconsistent
	case len(live) == 1:
		loc.Verdict = core.VerdictLocalized
		loc.Localized = live[0].f
	default:
		for _, v := range live {
			if v.f != nil {
				loc.Remaining = append(loc.Remaining, *v.f)
			}
		}
		// A single remaining hypothesis is convicted by elimination: the
		// specification itself cannot explain the detected symptom.
		if len(loc.Remaining) == 1 {
			loc.Verdict = core.VerdictLocalized
			loc.Localized = &loc.Remaining[0]
			loc.Remaining = nil
		} else {
			loc.Verdict = core.VerdictAmbiguous
		}
	}
	return loc, nil
}

// predictSinglePort runs a race-free single-port sequence on an n-machine
// variant and returns the deterministic outcome. A validated variant runs
// every sequence over its own inputs without error.
func predictSinglePort(v compiled.Variant, n int, seq []cfsm.Input) Outcome {
	streams := make([][]cfsm.Symbol, n)
	obs, _, _ := v.RunInputs(seq)
	for _, o := range obs {
		streams[o.Port] = append(streams[o.Port], o.Sym)
	}
	return Outcome{Streams: streams}
}

// Diagnose is the end-to-end nondeterministic entry point: it executes the
// scripts against the oracle, analyzes conservatively and localizes with
// single-port probes.
func Diagnose(spec *cfsm.System, scripts []Script, oracle Oracle) (*Localization, error) {
	observed := make([]Outcome, len(scripts))
	for i, s := range scripts {
		o, err := oracle.Execute(s)
		if err != nil {
			return nil, fmt.Errorf("async: execute script %d: %w", i, err)
		}
		observed[i] = o
	}
	a, err := Analyze(spec, scripts, observed)
	if err != nil {
		return nil, err
	}
	return Localize(a, oracle)
}
