package cfsm

import (
	"fmt"
	"reflect"
	"slices"
	"sort"
	"testing"

	"cfsmdiag/internal/fsm"
)

// refMachine is the map-based machine NewMachine used to build: one map from
// (From, Input) to the transition, one from name to key, and the transitions
// re-sorted from the map. It is the other side of TestNewMachineMatchesReference
// and FuzzNewMachine.
type refMachine struct {
	states []State
	trans  map[fsm.Key]Transition
	byName map[string]fsm.Key
	sorted []Transition
}

// referenceNewMachine is NewMachine as it was before the transitions were
// stored once: the same checks, in the same order, on maps.
func referenceNewMachine(name string, initial State, states []State, transitions []Transition) (*refMachine, error) {
	if name == "" {
		return nil, fmt.Errorf("cfsm: machine name must not be empty")
	}
	if len(states) == 0 {
		return nil, fmt.Errorf("cfsm %s: at least one state is required", name)
	}
	stateSet := make(map[State]bool, len(states))
	for _, s := range states {
		if s == "" {
			return nil, fmt.Errorf("cfsm %s: empty state name", name)
		}
		if stateSet[s] {
			return nil, fmt.Errorf("cfsm %s: duplicate state %q", name, s)
		}
		stateSet[s] = true
	}
	if !stateSet[initial] {
		return nil, fmt.Errorf("cfsm %s: initial state %q is not declared", name, initial)
	}
	m := &refMachine{
		states: append([]State(nil), states...),
		trans:  make(map[fsm.Key]Transition, len(transitions)),
		byName: make(map[string]fsm.Key, len(transitions)),
	}
	sort.Slice(m.states, func(i, j int) bool { return m.states[i] < m.states[j] })
	for _, t := range transitions {
		if t.Name == "" {
			return nil, fmt.Errorf("cfsm %s: transition %v has no name", name, t)
		}
		if _, dup := m.byName[t.Name]; dup {
			return nil, fmt.Errorf("cfsm %s: duplicate transition name %q", name, t.Name)
		}
		if !stateSet[t.From] || !stateSet[t.To] {
			return nil, fmt.Errorf("cfsm %s: transition %s references an undeclared state", name, t.Name)
		}
		if t.Input == "" || t.Output == "" {
			return nil, fmt.Errorf("cfsm %s: transition %s has an empty symbol", name, t.Name)
		}
		if t.Input == Epsilon || t.Output == Epsilon || t.Input == Null || t.Output == Null {
			return nil, fmt.Errorf("cfsm %s: transition %s uses a reserved symbol", name, t.Name)
		}
		k := fsm.Key{From: t.From, Input: t.Input}
		if prev, clash := m.trans[k]; clash {
			return nil, fmt.Errorf("cfsm %s: nondeterminism: %s and %s share state %q and input %q",
				name, prev.Name, t.Name, t.From, t.Input)
		}
		m.trans[k] = t
		m.byName[t.Name] = k
	}
	m.rebuildSorted()
	return m, nil
}

func (m *refMachine) rebuildSorted() {
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

// rewired is the reference rewire: a copy of the maps with the named
// transition edited in place.
func (m *refMachine) rewired(name string, edit func(*Transition)) *refMachine {
	c := &refMachine{
		states: m.states,
		trans:  make(map[fsm.Key]Transition, len(m.trans)),
		byName: m.byName,
	}
	for k, t := range m.trans {
		c.trans[k] = t
	}
	k := c.byName[name]
	t := c.trans[k]
	edit(&t)
	c.trans[k] = t
	c.rebuildSorted()
	return c
}

// machinePool is the vocabulary the table and fuzz cases draw from: states,
// transition names and symbols, each with the empty string and (for symbols)
// both reserved ones.
var machinePool = struct {
	states, names []string
	syms          []Symbol
}{
	states: []string{"s0", "s1", "s2", "", "s3"},
	names:  []string{"t0", "t1", "t2", "t3", "", "t4"},
	syms:   []Symbol{"a", "b", "c", "y", "", Null, Epsilon},
}

// sameMachine fails unless m answers every query exactly as the reference
// does: States, Transitions, HasState, and Lookup and ByName over the pool.
func sameMachine(t *testing.T, what string, m *Machine, ref *refMachine) {
	t.Helper()
	// The old accessors returned append(nil, ...) copies.
	if got, want := m.States(), append([]State(nil), ref.states...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: States %v, reference %v", what, got, want)
	}
	if got, want := m.Transitions(), append([]Transition(nil), ref.sorted...); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Transitions %v, reference %v", what, got, want)
	}
	if m.NumTransitions() != len(ref.sorted) {
		t.Fatalf("%s: NumTransitions %d, reference %d", what, m.NumTransitions(), len(ref.sorted))
	}
	for _, s := range machinePool.states {
		if got, want := m.HasState(State(s)), slices.Contains(ref.states, State(s)); got != want {
			t.Fatalf("%s: HasState(%q) %v, reference %v", what, s, got, want)
		}
		for _, in := range machinePool.syms {
			got, gotOK := m.Lookup(State(s), in)
			want, wantOK := ref.trans[fsm.Key{From: State(s), Input: in}]
			if got != want || gotOK != wantOK {
				t.Fatalf("%s: Lookup(%q, %q) = %v %v, reference %v %v", what, s, in, got, gotOK, want, wantOK)
			}
		}
	}
	for _, name := range machinePool.names {
		got, gotOK := m.ByName(name)
		k, wantOK := ref.byName[name]
		if got != ref.trans[k] || gotOK != wantOK {
			t.Fatalf("%s: ByName(%q) = %v %v, reference %v %v", what, name, got, gotOK, ref.trans[k], wantOK)
		}
	}
}

// checkNewMachine builds one machine both ways and requires the same error
// text, or machines that answer alike — before and after every rewire the
// built system admits.
func checkNewMachine(t *testing.T, initial State, states []State, trans []Transition) {
	t.Helper()
	m, err := NewMachine("M", initial, states, trans)
	ref, refErr := referenceNewMachine("M", initial, states, trans)
	if fmt.Sprint(err) != fmt.Sprint(refErr) {
		t.Fatalf("NewMachine error %v, reference %v", err, refErr)
	}
	if err != nil {
		return
	}
	sameMachine(t, "built", m, ref)
	// A peer machine without transitions gives Dest 1 a target, so internal
	// outputs validate as long as the alphabet partition holds.
	peer, err := NewMachine("P", "p0", []State{"p0"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := NewSystem(m, peer)
	if err != nil {
		return
	}
	for _, tr := range ref.sorted {
		r := Ref{Machine: 0, Name: tr.Name}
		for _, to := range []State{"", "s0", "s2"} {
			for _, out := range []Symbol{"", "y", "c"} {
				got, err := sys.Rewire(r, out, to)
				if err != nil {
					continue
				}
				want := ref.rewired(tr.Name, func(t *Transition) {
					if out != "" {
						t.Output = out
					}
					if to != "" {
						t.To = to
					}
				})
				sameMachine(t, fmt.Sprintf("Rewire(%s, %q, %q)", tr.Name, out, to), got.Machine(0), want)
			}
		}
		for _, dest := range []int{DestEnv, 1} {
			got, err := sys.RewireAddress(r, dest)
			if err != nil {
				continue
			}
			want := ref.rewired(tr.Name, func(t *Transition) { t.Dest = dest })
			sameMachine(t, fmt.Sprintf("RewireAddress(%s, %d)", tr.Name, dest), got.Machine(0), want)
		}
	}
	sameMachine(t, "after rewires", sys.Machine(0), ref)
}

// TestNewMachineMatchesReference pins NewMachine to the map-based build on
// every kind of invalid machine, including the error order when a machine
// has several faults, and on valid machines with their rewires.
func TestNewMachineMatchesReference(t *testing.T) {
	tr := func(name, from, in, out, to string) Transition {
		return Transition{Name: name, From: State(from), Input: Symbol(in), Output: Symbol(out), To: State(to), Dest: DestEnv}
	}
	three := []State{"s2", "s0", "s1"}
	cases := []struct {
		name    string
		initial State
		states  []State
		trans   []Transition
	}{
		{"valid", "s0", three, []Transition{tr("t2", "s1", "b", "y", "s0"), tr("t1", "s0", "a", "y", "s1"), tr("t0", "s0", "b", "c", "s2")}},
		{"valid internal", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), {Name: "t0", From: "s1", Input: "c", Output: "a", To: "s0", Dest: 1}}},
		{"no transitions", "s0", three, nil},
		{"no states", "s0", nil, nil},
		{"duplicate state", "s0", []State{"s0", "s1", "s0", "s1"}, nil},
		{"empty state after duplicate", "s0", []State{"s1", "s1", ""}, nil},
		{"duplicate after empty state", "s0", []State{"s1", "", "s1"}, nil},
		{"two empty states", "s0", []State{"", ""}, nil},
		{"undeclared initial", "zz", three, nil},
		{"no name", "s0", three, []Transition{tr("", "s0", "a", "y", "s1")}},
		{"duplicate name", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t1", "s1", "a", "y", "s1")}},
		{"duplicate name before undeclared", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t1", "s9", "a", "y", "s1")}},
		{"undeclared from", "s0", three, []Transition{tr("t1", "s9", "a", "y", "s1")}},
		{"undeclared to", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s9")}},
		{"empty input", "s0", three, []Transition{tr("t1", "s0", "", "y", "s1")}},
		{"empty output", "s0", three, []Transition{tr("t1", "s0", "a", "", "s1")}},
		{"reserved null", "s0", three, []Transition{tr("t1", "s0", string(Null), "y", "s1")}},
		{"reserved epsilon", "s0", three, []Transition{tr("t1", "s0", "a", string(Epsilon), "s1")}},
		{"clash", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t2", "s1", "a", "y", "s1"), tr("t3", "s0", "a", "c", "s2")}},
		{"clashing keys, the later pair sorts first", "s0", three, []Transition{
			tr("t4", "s1", "b", "y", "s1"), tr("t1", "s0", "a", "y", "s1"), tr("t0", "s0", "a", "c", "s2"), tr("t3", "s1", "b", "c", "s2")}},
		{"three on one key", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t2", "s0", "a", "y", "s2"), tr("t0", "s0", "a", "c", "s0")}},
		{"clash before a fault", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t2", "s0", "a", "y", "s2"), tr("", "s0", "b", "y", "s0")}},
		{"fault before a clash", "s0", three, []Transition{tr("t1", "s0", "a", "y", "s1"), tr("t1", "s2", "a", "y", "s2"), tr("t2", "s0", "a", "y", "s0")}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) { checkNewMachine(t, c.initial, c.states, c.trans) })
	}
}

// FuzzNewMachine decodes bytes into a state list and a transition list over
// machinePool — duplicate and empty states, duplicate and empty names,
// undeclared states, reserved and empty symbols, clashing keys — and holds
// NewMachine, and the rewires of what it builds, to the reference.
func FuzzNewMachine(f *testing.F) {
	f.Add([]byte{3, 0, 1, 2, 0, 0, 0, 0, 3, 1, 0, 1, 1, 1, 3, 2, 1})
	f.Add([]byte{2, 0, 0, 0, 1, 0, 0, 0, 1, 0, 1, 0, 1, 3, 1, 0})
	f.Add([]byte{4, 1, 0, 3, 2, 1, 2, 0, 5, 6, 0, 0})
	f.Add([]byte{3, 0, 1, 2, 0, 1, 0, 0, 3, 0, 0, 2, 1, 0, 3, 1, 1, 0, 1, 1, 0, 2, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func(n int) int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b) % n
		}
		pool := machinePool
		states := make([]State, next(3*len(pool.states)))
		for i := range states {
			states[i] = State(pool.states[next(len(pool.states))])
		}
		initial := State(pool.states[next(len(pool.states))])
		var trans []Transition
		// Past 12 elements slices.SortFunc stops being an insertion sort,
		// so longer lists check that the error path keeps input order.
		for len(data) > 0 && len(trans) < 40 {
			trans = append(trans, Transition{
				Name:   pool.names[next(len(pool.names))],
				From:   State(pool.states[next(len(pool.states))]),
				Input:  pool.syms[next(len(pool.syms))],
				Output: pool.syms[next(len(pool.syms))],
				To:     State(pool.states[next(len(pool.states))]),
				Dest:   next(2)*2 - 1, // DestEnv or machine 1
			})
		}
		checkNewMachine(t, initial, states, trans)
	})
}
