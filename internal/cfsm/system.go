// Package cfsm models systems of communicating finite state machines with
// distributed ports, following Section 2 of Ghedamsi, v. Bochmann and Dssouli
// (ICDCS 1993).
//
// A system consists of N deterministic partial FSMs. Each machine M_i owns an
// external port P_i and one input queue per peer machine. Transitions are of
// two kinds: external-output transitions deliver their output to the
// machine's own port; internal-output transitions deliver their output to a
// peer machine's input queue, where it immediately triggers an
// external-output transition of the peer (the paper restricts internal
// chains to length two). Under the paper's synchronization assumption only
// one message circulates at a time, so the global behaviour is deterministic
// and a test case is a sequence of (port, input) pairs with one observable
// output per input.
package cfsm

import (
	"fmt"
	"slices"
	"strings"

	"cfsmdiag/internal/fsm"
)

// State and Symbol are shared with the single-machine substrate.
type (
	State  = fsm.State
	Symbol = fsm.Symbol
)

// Distinguished symbols re-exported from the fsm package.
const (
	Null    = fsm.Null
	Epsilon = fsm.Epsilon
)

// DestEnv marks a transition whose output is addressed to the machine's own
// external port (an "external-output transition" in the paper's terms).
const DestEnv = -1

// Transition is one labeled transition of a machine in the system. Dest is
// DestEnv for external-output transitions and the 0-based index of the
// receiving machine for internal-output transitions.
type Transition struct {
	Name   string
	From   State
	Input  Symbol
	Output Symbol
	To     State
	Dest   int
}

// Internal reports whether the transition delivers its output to a peer
// machine rather than to the machine's own external port.
func (t Transition) Internal() bool { return t.Dest != DestEnv }

// String renders the transition in the paper's style, annotating internal
// outputs with their destination machine, e.g. "t6: s1 -c/c'→M2-> s2".
func (t Transition) String() string {
	name := t.Name
	if name == "" {
		name = "?"
	}
	out := string(t.Output)
	if t.Internal() {
		out = fmt.Sprintf("%s→M%d", t.Output, t.Dest+1)
	}
	return fmt.Sprintf("%s: %s -%s/%s-> %s", name, t.From, t.Input, out, t.To)
}

// Machine is one deterministic partial FSM of a system. Machines are
// immutable after construction (the rewiring operations return modified
// copies), so they are safe for concurrent use by any number of goroutines.
//
// The transitions are stored once, sorted by (From, Input) — the order
// Transitions reports and every hot loop (validation, Refs, the alphabet
// accessors, fault enumeration) walks. Two indexes point into that slice:
// a (From, Input) map for the simulator's Lookup, and the positions sorted
// by name for ByName's binary search. A rewire keeps every transition's
// name and key, and so its position, so a rewired copy shares both indexes
// and the state list with its source and copies only the transitions.
type Machine struct {
	name    string
	initial State
	states  []State      // declared states, sorted
	sorted  []Transition // sorted by (From, Input)
	index   map[fsm.Key]int32
	names   []int32 // positions in sorted, ordered by transition name
}

// NewMachine builds one machine of a system. Determinism, unique transition
// names and declared endpoints are validated here; the cross-machine rules
// (destination indices, alphabet partition, internal-chain restriction) are
// validated by NewSystem. An invalid machine is reported by its first
// offending state, or else its first offending transition, in input order.
func NewMachine(name string, initial State, states []State, transitions []Transition) (*Machine, error) {
	if name == "" {
		return nil, fmt.Errorf("cfsm: machine name must not be empty")
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("cfsm %s: at least one state is required", name)
	}
	m := &Machine{name: name, initial: initial, states: slices.Clone(states)}
	slices.Sort(m.states)
	if m.states[0] == "" || hasAdjacentDup(m.states, func(a, b State) bool { return a == b }) {
		return nil, stateError(name, states)
	}
	if !m.HasState(initial) {
		return nil, fmt.Errorf("cfsm %s: initial state %q is not declared", name, initial)
	}
	m.sorted = slices.Clone(transitions)
	slices.SortFunc(m.sorted, compareKey)
	m.names = make([]int32, len(m.sorted))
	for i := range m.names {
		m.names[i] = int32(i)
	}
	slices.SortFunc(m.names, func(a, b int32) int { return strings.Compare(m.sorted[a].Name, m.sorted[b].Name) })
	bad := hasAdjacentDup(m.sorted, func(a, b Transition) bool { return compareKey(a, b) == 0 }) ||
		hasAdjacentDup(m.names, func(a, b int32) bool { return m.sorted[a].Name == m.sorted[b].Name })
	for i := 0; i < len(m.sorted) && !bad; i++ {
		bad = transitionFault(m, &m.sorted[i]) != ""
	}
	if bad {
		return nil, transitionError(m, transitions)
	}
	m.index = make(map[fsm.Key]int32, len(m.sorted))
	for i, t := range m.sorted {
		m.index[fsm.Key{From: t.From, Input: t.Input}] = int32(i)
	}
	return m, nil
}

// compareKey orders transitions by (From, Input).
func compareKey(a, b Transition) int {
	if c := strings.Compare(string(a.From), string(b.From)); c != 0 {
		return c
	}
	return strings.Compare(string(a.Input), string(b.Input))
}

// hasAdjacentDup reports whether two neighbours of a sorted slice are equal.
func hasAdjacentDup[E any](s []E, eq func(a, b E) bool) bool {
	for i := 1; i < len(s); i++ {
		if eq(s[i-1], s[i]) {
			return true
		}
	}
	return false
}

// stateError reports the first state, in input order, that is empty or
// repeats an earlier one. Only a state list that failed the sorted checks
// reaches it.
func stateError(name string, states []State) error {
	seen := make(map[State]bool, len(states))
	for _, s := range states {
		if s == "" {
			return fmt.Errorf("cfsm %s: empty state name", name)
		}
		if seen[s] {
			return fmt.Errorf("cfsm %s: duplicate state %q", name, s)
		}
		seen[s] = true
	}
	panic("cfsm: stateError on valid states")
}

// transitionFault names what is wrong with one transition on its own — a
// missing name, an undeclared state, an empty or a reserved symbol — as the
// tail of its error message, or returns "".
func transitionFault(m *Machine, t *Transition) string {
	switch {
	case t.Name == "":
		return fmt.Sprintf("transition %v has no name", *t)
	case !m.HasState(t.From) || !m.HasState(t.To):
		return fmt.Sprintf("transition %s references an undeclared state", t.Name)
	case t.Input == "" || t.Output == "":
		return fmt.Sprintf("transition %s has an empty symbol", t.Name)
	case t.Input == Epsilon || t.Output == Epsilon || t.Input == Null || t.Output == Null:
		return fmt.Sprintf("transition %s uses a reserved symbol", t.Name)
	}
	return ""
}

// transitionError reports the first offending transition in input order,
// checking each in turn for a missing name, a name an earlier transition
// took, its own faults, and a (From, Input) pair an earlier transition
// defines. Only a transition list that failed the sorted checks reaches it.
func transitionError(m *Machine, ts []Transition) error {
	names := make(map[string]bool, len(ts))
	keys := make(map[fsm.Key]string, len(ts))
	for i := range ts {
		t := &ts[i]
		fault := transitionFault(m, t)
		if t.Name != "" && names[t.Name] {
			fault = fmt.Sprintf("duplicate transition name %q", t.Name)
		}
		if fault != "" {
			return fmt.Errorf("cfsm %s: %s", m.name, fault)
		}
		k := fsm.Key{From: t.From, Input: t.Input}
		if prev, clash := keys[k]; clash {
			return fmt.Errorf("cfsm %s: nondeterminism: %s and %s share state %q and input %q",
				m.name, prev, t.Name, t.From, t.Input)
		}
		names[t.Name], keys[k] = true, t.Name
	}
	panic("cfsm: transitionError on valid transitions")
}

// Name returns the machine's display name.
func (m *Machine) Name() string { return m.name }

// Initial returns the machine's initial state.
func (m *Machine) Initial() State { return m.initial }

// States returns the declared states, sorted. The slice is a copy.
func (m *Machine) States() []State { return append([]State(nil), m.states...) }

// HasState reports whether s is declared in the machine.
func (m *Machine) HasState(s State) bool {
	_, ok := slices.BinarySearch(m.states, s)
	return ok
}

// Lookup returns the transition defined for (state, input), if any.
func (m *Machine) Lookup(from State, input Symbol) (Transition, bool) {
	i, ok := m.index[fsm.Key{From: from, Input: input}]
	if !ok {
		return Transition{}, false
	}
	return m.sorted[i], true
}

// ByName returns the transition with the given name, if any.
func (m *Machine) ByName(name string) (Transition, bool) {
	i, ok := m.position(name)
	if !ok {
		return Transition{}, false
	}
	return m.sorted[i], true
}

// position returns the named transition's position in the sorted slice.
func (m *Machine) position(name string) (int32, bool) {
	k, ok := slices.BinarySearchFunc(m.names, name, func(i int32, name string) int {
		return strings.Compare(m.sorted[i].Name, name)
	})
	if !ok {
		return -1, false
	}
	return m.names[k], true
}

// Transitions returns all transitions sorted by (From, Input). The slice is a
// copy of the stored order, so calling it in hot loops costs one copy, never
// a sort.
func (m *Machine) Transitions() []Transition {
	return append([]Transition(nil), m.sorted...)
}

// transitions returns the sorted slice without copying, for
// package-internal read-only iteration on hot paths.
func (m *Machine) transitions() []Transition { return m.sorted }

// NumTransitions returns the number of defined transitions.
func (m *Machine) NumTransitions() int { return len(m.sorted) }

// withTransition returns a copy of the machine in which the transition at
// position i is replaced by t, which keeps its name and (From, Input) key:
// the copy shares the states and both indexes.
func (m *Machine) withTransition(i int32, t Transition) *Machine {
	c := *m
	c.sorted = slices.Clone(m.sorted)
	c.sorted[i] = t
	return &c
}

// ResetSymbol is the distinguished input that resets every machine of a
// system to its initial state, written "R" in the paper.
const ResetSymbol Symbol = "R"

// System is a system of N communicating finite state machines. Systems are
// immutable after construction; Rewire returns modified copies.
//
// Because a System (and its Machines) is never mutated after NewSystem
// returns — all state lives in maps and slices that are only read — a single
// *System may be shared by any number of goroutines simulating, diagnosing
// or enumerating faults concurrently, with no synchronization. Per-run
// mutable state (configurations, runners, oracles) must be per-goroutine.
type System struct {
	machines []*Machine
}

// NewSystem assembles and validates a system. Beyond per-machine validity it
// checks the model rules of Section 2:
//
//   - destination indices of internal-output transitions must name a peer
//     machine (not the machine itself);
//   - within one machine the inputs of external-output transitions (IEO) and
//     of internal-output transitions (IIO) must be disjoint;
//   - the internal-chain restriction: every symbol a machine can send to a
//     peer must, wherever the peer defines it, trigger an external-output
//     transition of the peer — so at most two transitions execute per input;
//   - the reset symbol R must not be used as a transition input.
func NewSystem(machines ...*Machine) (*System, error) {
	if len(machines) == 0 {
		return nil, fmt.Errorf("cfsm: a system needs at least one machine")
	}
	names := make(map[string]bool, len(machines))
	for _, m := range machines {
		if m == nil {
			return nil, fmt.Errorf("cfsm: nil machine")
		}
		if names[m.name] {
			return nil, fmt.Errorf("cfsm: duplicate machine name %q", m.name)
		}
		names[m.name] = true
	}
	s := &System{machines: machines}
	if err := s.validate(); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *System) validate() error {
	for i, m := range s.machines {
		ieo := make(map[Symbol]bool)
		iio := make(map[Symbol]bool)
		for _, t := range m.transitions() {
			if t.Input == ResetSymbol {
				return fmt.Errorf("cfsm %s: transition %s uses the reserved reset input %q",
					m.name, t.Name, ResetSymbol)
			}
			if t.Internal() {
				if t.Dest < 0 || t.Dest >= len(s.machines) {
					return fmt.Errorf("cfsm %s: transition %s addresses unknown machine index %d",
						m.name, t.Name, t.Dest)
				}
				if t.Dest == i {
					return fmt.Errorf("cfsm %s: transition %s addresses its own machine", m.name, t.Name)
				}
				iio[t.Input] = true
			} else {
				ieo[t.Input] = true
			}
		}
		for sym := range iio {
			if ieo[sym] {
				return fmt.Errorf("cfsm %s: input %q is used by both external- and internal-output transitions (IEO ∩ IIO must be empty)",
					m.name, sym)
			}
		}
	}
	// Internal-chain restriction: for every internal output symbol y sent by
	// machine i to machine j, every transition of j on input y must be
	// external, so that the chain terminates after the second transition.
	for i, m := range s.machines {
		for _, t := range m.transitions() {
			if !t.Internal() {
				continue
			}
			recv := s.machines[t.Dest]
			for _, u := range recv.transitions() {
				if u.Input == t.Output && u.Internal() {
					return fmt.Errorf("cfsm: internal chain: %s.%s sends %q to %s, whose transition %s forwards it internally (the model allows only internal→external pairs)",
						m.name, t.Name, t.Output, recv.name, u.Name)
				}
			}
			_ = i
		}
	}
	return nil
}

// N returns the number of machines.
func (s *System) N() int { return len(s.machines) }

// Machine returns the i-th machine (0-based). It panics on a bad index, which
// indicates a programming error rather than a runtime condition.
func (s *System) Machine(i int) *Machine { return s.machines[i] }

// Machines returns the machines in system order. The slice is a copy; the
// machines themselves are shared and immutable.
func (s *System) Machines() []*Machine { return append([]*Machine(nil), s.machines...) }

// MachineIndex resolves a machine's display name to its 0-based index. The
// port-map layer (internal/ports) keys its JSON documents by machine name
// and needs the reverse lookup of Machine(i).Name().
func (s *System) MachineIndex(name string) (int, bool) {
	for i, m := range s.machines {
		if m.name == name {
			return i, true
		}
	}
	return 0, false
}

// NumTransitions returns the total number of transitions across all machines.
func (s *System) NumTransitions() int {
	n := 0
	for _, m := range s.machines {
		n += m.NumTransitions()
	}
	return n
}

// Ref identifies a transition globally by machine index and transition name.
type Ref struct {
	Machine int
	Name    string
}

// String renders the reference as "M2.t'6" using the machine's display name
// when available. Refs render as "#<index>.<name>" only if detached from any
// system, which does not happen in practice.
func (r Ref) String() string { return fmt.Sprintf("#%d.%s", r.Machine, r.Name) }

// RefSet is a set of transition references. The searches take one as an
// avoid set: transitions a sequence must not exercise — the constraint Step 6
// places on additional diagnostic tests ("they do not involve any candidate
// transition").
type RefSet map[Ref]bool

// NewRefSet builds a set from the given references.
func NewRefSet(refs ...Ref) RefSet {
	s := make(RefSet, len(refs))
	for _, r := range refs {
		s[r] = true
	}
	return s
}

// Clone returns a copy of the set.
func (s RefSet) Clone() RefSet {
	c := make(RefSet, len(s))
	for r := range s {
		c[r] = true
	}
	return c
}

// Without returns a copy of the set with the given reference removed.
func (s RefSet) Without(r Ref) RefSet {
	c := s.Clone()
	delete(c, r)
	return c
}

// RefString renders a reference with the machine's display name.
func (s *System) RefString(r Ref) string {
	if r.Machine < 0 || r.Machine >= len(s.machines) {
		return r.String()
	}
	return s.machines[r.Machine].name + "." + r.Name
}

// Transition resolves a Ref to its transition.
func (s *System) Transition(r Ref) (Transition, bool) {
	if r.Machine < 0 || r.Machine >= len(s.machines) {
		return Transition{}, false
	}
	return s.machines[r.Machine].ByName(r.Name)
}

// Refs returns references to every transition of the system in deterministic
// order (machine index, then (From, Input)).
func (s *System) Refs() []Ref {
	var out []Ref
	for i, m := range s.machines {
		for _, t := range m.transitions() {
			out = append(out, Ref{Machine: i, Name: t.Name})
		}
	}
	return out
}

// Rewire returns a copy of the system in which the referenced transition has
// its output replaced by newOutput (if non-empty) and its destination state
// replaced by newTo (if non-empty). The copy is re-validated so that a rewire
// can never produce a system violating the internal-chain restriction.
func (s *System) Rewire(r Ref, newOutput Symbol, newTo State) (*System, error) {
	t, ok := s.Transition(r)
	if !ok {
		return nil, fmt.Errorf("cfsm: no transition %s", s.RefString(r))
	}
	if newTo != "" && !s.machines[r.Machine].HasState(newTo) {
		return nil, fmt.Errorf("cfsm: rewire %s: %q is not a state of %s",
			s.RefString(r), newTo, s.machines[r.Machine].name)
	}
	if newOutput != "" {
		t.Output = newOutput
	}
	if newTo != "" {
		t.To = newTo
	}
	return s.replace(r, t)
}

// RewireAddress returns a copy of the system in which the referenced
// transition delivers its output to a different destination: a peer machine
// index, or DestEnv for the machine's own port. It models the "addressing
// faults" the paper's concluding discussion leaves as future work (the
// address component of an output, as opposed to the message type).
//
// The copy is re-validated, so an address rewire that would break the
// IEO/IIO partition or the internal-chain restriction is rejected.
func (s *System) RewireAddress(r Ref, newDest int) (*System, error) {
	t, ok := s.Transition(r)
	if !ok {
		return nil, fmt.Errorf("cfsm: no transition %s", s.RefString(r))
	}
	if newDest == t.Dest {
		return nil, fmt.Errorf("cfsm: rewire %s: destination unchanged", s.RefString(r))
	}
	if newDest != DestEnv && (newDest < 0 || newDest >= len(s.machines)) {
		return nil, fmt.Errorf("cfsm: rewire %s: unknown destination %d", s.RefString(r), newDest)
	}
	t.Dest = newDest
	return s.replace(r, t)
}

// replace returns a re-validated copy of the system in which the referenced
// transition is t, which keeps the transition's name and (From, Input) key.
func (s *System) replace(r Ref, t Transition) (*System, error) {
	m := s.machines[r.Machine]
	i, _ := m.position(r.Name)
	ms := slices.Clone(s.machines)
	ms[r.Machine] = m.withTransition(i, t)
	out := &System{machines: ms}
	if err := out.validate(); err != nil {
		return nil, fmt.Errorf("cfsm: rewire %s: %w", s.RefString(r), err)
	}
	return out, nil
}

// Config is a global configuration: the current state of each machine, in
// system order. Under the synchronization assumption all queues are empty
// between inputs, so machine states fully determine the global state.
type Config []State

// InitialConfig returns the configuration with every machine in its initial
// state.
func (s *System) InitialConfig() Config {
	cfg := make(Config, len(s.machines))
	for i, m := range s.machines {
		cfg[i] = m.initial
	}
	return cfg
}

// Clone returns a copy of the configuration.
func (c Config) Clone() Config { return append(Config(nil), c...) }

// Key returns a canonical string key for use in search maps.
func (c Config) Key() string {
	parts := make([]string, len(c))
	for i, s := range c {
		parts[i] = string(s)
	}
	return strings.Join(parts, "|")
}
