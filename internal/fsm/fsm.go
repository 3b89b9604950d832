// Package fsm implements the deterministic, partially specified finite state
// machine substrate used throughout the CFSM diagnosis library.
//
// A machine follows Definition 1 of Ghedamsi, v. Bochmann and Dssouli
// (ICDCS 1993): a quintuple (S, I, O, NextStaFunc, OutFunc) where both the
// next-state function and the output function are partial functions of
// (state, input). An input that is undefined in the current state produces
// the distinguished Epsilon output and leaves the state unchanged, matching
// the observable behaviour of the paper's worked example (input v applied in
// state s0 of M3 yields "ε").
//
// The package also provides the classical FSM test-generation machinery the
// diagnosis algorithm builds on: reachability, transfer sequences, pairwise
// distinguishing sequences and (limited) characterization sets, all with
// support for "avoid sets" of transitions that must not be exercised — the
// mechanism Step 6 of the paper uses to keep diagnostic candidates out of the
// additional test cases.
package fsm

import (
	"fmt"
	"sort"
)

// State identifies a state of a machine, e.g. "s0".
type State string

// Symbol is an input or output symbol, e.g. "a" or "c'".
type Symbol string

// Distinguished output symbols of the model.
const (
	// Null is the output of the reset transition, written "-" in the paper.
	Null Symbol = "-"
	// Epsilon is the observation produced when an input is applied in a
	// state where it is undefined (the machine stays put).
	Epsilon Symbol = "ε"
)

// Transition is one labeled transition of a machine.
type Transition struct {
	Name   string // display label, e.g. "t7"; unique within a machine
	From   State
	Input  Symbol
	Output Symbol
	To     State
}

// String renders the transition in the paper's "t7: s2 -b/d'-> s0" style.
func (t Transition) String() string {
	name := t.Name
	if name == "" {
		name = "?"
	}
	return fmt.Sprintf("%s: %s -%s/%s-> %s", name, t.From, t.Input, t.Output, t.To)
}

// Key identifies a transition by its deterministic (state, input) pair.
type Key struct {
	From  State
	Input Symbol
}

// FSM is a deterministic, partially specified finite state machine.
// The zero value is not usable; construct machines with New or Builder.
// An FSM is immutable after construction (Rewire returns a modified copy),
// so it is safe for concurrent use by any number of goroutines.
type FSM struct {
	name    string
	initial State
	states  []State // sorted, for deterministic iteration
	inputs  []Symbol
	trans   map[Key]Transition
	byName  map[string]Key
	// sorted caches the transitions ordered by (From, Input); Transitions is
	// called from hot loops (fault enumeration, minimization) and
	// must not rebuild and re-sort on every call.
	sorted []Transition
}

// New builds a machine and validates it: the initial state must be declared,
// transition endpoints must be declared states, transition names must be
// unique, and no two transitions may share a (state, input) pair.
func New(name string, initial State, states []State, transitions []Transition) (*FSM, error) {
	if name == "" {
		return nil, fmt.Errorf("fsm: machine name must not be empty")
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("fsm %s: at least one state is required", name)
	}
	stateSet := make(map[State]bool, len(states))
	for _, s := range states {
		if s == "" {
			return nil, fmt.Errorf("fsm %s: empty state name", name)
		}
		if stateSet[s] {
			return nil, fmt.Errorf("fsm %s: duplicate state %q", name, s)
		}
		stateSet[s] = true
	}
	if !stateSet[initial] {
		return nil, fmt.Errorf("fsm %s: initial state %q is not a declared state", name, initial)
	}

	m := &FSM{
		name:    name,
		initial: initial,
		states:  append([]State(nil), states...),
		trans:   make(map[Key]Transition, len(transitions)),
		byName:  make(map[string]Key, len(transitions)),
	}
	sort.Slice(m.states, func(i, j int) bool { return m.states[i] < m.states[j] })

	inputSet := make(map[Symbol]bool)
	for _, t := range transitions {
		if t.Name == "" {
			return nil, fmt.Errorf("fsm %s: transition %v has no name", name, t)
		}
		if _, dup := m.byName[t.Name]; dup {
			return nil, fmt.Errorf("fsm %s: duplicate transition name %q", name, t.Name)
		}
		if !stateSet[t.From] {
			return nil, fmt.Errorf("fsm %s: transition %s starts in undeclared state %q", name, t.Name, t.From)
		}
		if !stateSet[t.To] {
			return nil, fmt.Errorf("fsm %s: transition %s ends in undeclared state %q", name, t.Name, t.To)
		}
		if t.Input == "" || t.Output == "" {
			return nil, fmt.Errorf("fsm %s: transition %s has an empty symbol", name, t.Name)
		}
		if t.Input == Epsilon || t.Output == Epsilon {
			return nil, fmt.Errorf("fsm %s: transition %s uses the reserved symbol %q", name, t.Name, Epsilon)
		}
		k := Key{From: t.From, Input: t.Input}
		if prev, clash := m.trans[k]; clash {
			return nil, fmt.Errorf("fsm %s: nondeterminism: transitions %s and %s share state %q and input %q",
				name, prev.Name, t.Name, t.From, t.Input)
		}
		m.trans[k] = t
		m.byName[t.Name] = k
		inputSet[t.Input] = true
	}
	m.inputs = sortedSymbols(inputSet)
	m.rebuildSorted()
	return m, nil
}

// rebuildSorted recomputes the cached (From, Input)-ordered transition
// slice.
func (m *FSM) rebuildSorted() {
	m.sorted = make([]Transition, 0, len(m.trans))
	for _, t := range m.trans {
		m.sorted = append(m.sorted, t)
	}
	sort.Slice(m.sorted, func(i, j int) bool {
		if m.sorted[i].From != m.sorted[j].From {
			return m.sorted[i].From < m.sorted[j].From
		}
		return m.sorted[i].Input < m.sorted[j].Input
	})
}

func sortedSymbols(set map[Symbol]bool) []Symbol {
	out := make([]Symbol, 0, len(set))
	for s := range set {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Initial returns the initial state.
func (m *FSM) Initial() State { return m.initial }

// States returns the declared states in sorted order. The slice is a copy.
func (m *FSM) States() []State { return append([]State(nil), m.states...) }

// HasState reports whether s is a declared state.
func (m *FSM) HasState(s State) bool {
	for _, st := range m.states {
		if st == s {
			return true
		}
	}
	return false
}

// Lookup returns the transition defined for (state, input), if any.
func (m *FSM) Lookup(from State, input Symbol) (Transition, bool) {
	t, ok := m.trans[Key{From: from, Input: input}]
	return t, ok
}

// ByName returns the transition with the given name, if any.
func (m *FSM) ByName(name string) (Transition, bool) {
	k, ok := m.byName[name]
	if !ok {
		return Transition{}, false
	}
	return m.trans[k], true
}

// Transitions returns all transitions sorted by (From, Input) for
// deterministic iteration. The slice is a copy of a cache precomputed at
// construction time, so repeated calls never re-sort.
func (m *FSM) Transitions() []Transition {
	return append([]Transition(nil), m.sorted...)
}

// NumTransitions returns the number of defined transitions.
func (m *FSM) NumTransitions() int { return len(m.trans) }

// Clone returns a deep copy of the machine.
func (m *FSM) Clone() *FSM {
	c := &FSM{
		name:    m.name,
		initial: m.initial,
		states:  append([]State(nil), m.states...),
		inputs:  append([]Symbol(nil), m.inputs...),
		trans:   make(map[Key]Transition, len(m.trans)),
		byName:  make(map[string]Key, len(m.byName)),
		sorted:  append([]Transition(nil), m.sorted...),
	}
	for k, t := range m.trans {
		c.trans[k] = t
	}
	for n, k := range m.byName {
		c.byName[n] = k
	}
	return c
}

// Rewire returns a copy of the machine in which the named transition has its
// output replaced by newOutput (if non-empty) and its destination replaced by
// newTo (if non-empty). It is the primitive the fault model and the
// hypothesis-checking procedures of the diagnosis algorithm are built on.
func (m *FSM) Rewire(name string, newOutput Symbol, newTo State) (*FSM, error) {
	k, ok := m.byName[name]
	if !ok {
		return nil, fmt.Errorf("fsm %s: no transition named %q", m.name, name)
	}
	if newTo != "" && !m.HasState(newTo) {
		return nil, fmt.Errorf("fsm %s: rewire %s: %q is not a declared state", m.name, name, newTo)
	}
	c := m.Clone()
	t := c.trans[k]
	if newOutput != "" {
		t.Output = newOutput
	}
	if newTo != "" {
		t.To = newTo
	}
	c.trans[k] = t
	// The rewire keeps the transition's (From, Input) key, so the cached
	// order is unchanged; update the matching entry in place.
	for i := range c.sorted {
		if c.sorted[i].Name == t.Name {
			c.sorted[i] = t
			break
		}
	}
	return c, nil
}
