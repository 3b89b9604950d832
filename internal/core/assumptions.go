package core

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fsm"
)

// Warning flags a property of a specification that can weaken the
// diagnosis guarantees. Warnings are advisory: diagnosis still runs, but
// ambiguous verdicts become more likely.
type Warning struct {
	Code    string
	Machine string // "" for system-level warnings
	Detail  string
}

// String renders the warning.
func (w Warning) String() string {
	if w.Machine == "" {
		return fmt.Sprintf("[%s] %s", w.Code, w.Detail)
	}
	return fmt.Sprintf("[%s] %s: %s", w.Code, w.Machine, w.Detail)
}

// Warning codes.
const (
	// WarnEquivalentStates: a machine has observationally equivalent states
	// (in isolation); transfer faults between them may be undiagnosable.
	WarnEquivalentStates = "equivalent-states"
	// WarnUnreachableTransition: a transition can never execute from the
	// initial configuration; its faults are undetectable.
	WarnUnreachableTransition = "unreachable-transition"
	// WarnSingleOutput: a transition class has only one output symbol, so
	// output faults in it are impossible by construction (informational).
	WarnSingleOutput = "single-output-class"
	// WarnNotStronglyConnected: the global configuration graph is not
	// strongly connected; some diagnostic transfer sequences may not exist
	// without a reset.
	WarnNotStronglyConnected = "not-strongly-connected"
)

// CheckAssumptions inspects a specification for properties that weaken the
// guarantees of the diagnosis algorithm and returns advisory warnings.
//
// Reachability and strong connectivity come from one forward pass over the
// compiled configuration graph and one reverse pass (compiled.Program.Reach).
// The forward pass stops at the searches' exploration limit; past it the
// unreachable-transition warnings are computed over the configurations
// discovered, and no strong-connectivity warning is emitted, because the
// truncated pass cannot decide it.
func CheckAssumptions(spec *cfsm.System) []Warning {
	var out []Warning

	// Per-machine equivalent states: check each machine in isolation by
	// projecting it to a plain FSM (internal outputs treated as opaque
	// symbols, which under-approximates distinguishability; equivalent
	// projected states are a genuine risk flag).
	for i := 0; i < spec.N(); i++ {
		m := spec.Machine(i)
		proj, err := projectMachine(m)
		if err != nil {
			continue
		}
		if !proj.IsMinimal() {
			out = append(out, Warning{
				Code:    WarnEquivalentStates,
				Machine: m.Name(),
				Detail:  "has states that are equivalent in isolation; transfer faults between them may be undiagnosable",
			})
		}
	}

	// Unreachable transitions: not executable from any reachable global
	// configuration.
	prog, err := compiled.Compile(spec)
	if err != nil {
		panic(err) // Compile fails only on a nil system
	}
	reach := prog.Reach()
	for _, r := range reach.Unexecutable {
		out = append(out, Warning{
			Code:    WarnUnreachableTransition,
			Machine: spec.Machine(r.Machine).Name(),
			Detail:  fmt.Sprintf("transition %s can never execute; its faults are undetectable", r.Name),
		})
	}

	// Single-output transition classes.
	for i := 0; i < spec.N(); i++ {
		if len(spec.OEO(i)) == 1 {
			out = append(out, Warning{
				Code:    WarnSingleOutput,
				Machine: spec.Machine(i).Name(),
				Detail:  "OEO has a single symbol; external output faults are impossible by construction",
			})
		}
		for j := 0; j < spec.N(); j++ {
			if i == j {
				continue
			}
			if oio := spec.OIO(i, j); len(oio) == 1 {
				out = append(out, Warning{
					Code:    WarnSingleOutput,
					Machine: spec.Machine(i).Name(),
					Detail: fmt.Sprintf("OIO to %s has a single symbol; internal output faults on that channel are impossible",
						spec.Machine(j).Name()),
				})
			}
		}
	}

	// Global strong connectivity (ignoring the reset).
	if !reach.Truncated && !reach.StronglyConnected {
		out = append(out, Warning{
			Code:   WarnNotStronglyConnected,
			Detail: "the reachable configuration graph is not strongly connected; transfer sequences rely on the reset",
		})
	}
	return out
}

// projectMachine views one machine of a system as a standalone FSM.
func projectMachine(m *cfsm.Machine) (*fsm.FSM, error) {
	var trans []fsm.Transition
	for _, t := range m.Transitions() {
		out := t.Output
		if t.Internal() {
			out = cfsm.Symbol(fmt.Sprintf("%s→%d", t.Output, t.Dest))
		}
		trans = append(trans, fsm.Transition{
			Name: t.Name, From: t.From, Input: t.Input, Output: out, To: t.To,
		})
	}
	return fsm.New(m.Name(), m.Initial(), m.States(), trans)
}
