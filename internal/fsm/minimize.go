package fsm

import (
	"fmt"
	"sort"
	"strings"
)

// Minimize returns an observationally equivalent machine with equivalent
// states merged, together with the mapping from original states to the
// representative state that replaced them. Partial machines are handled by
// treating "undefined" as a distinct observable behaviour (the Epsilon
// output), consistent with the simulator.
//
// The construction is classical partition refinement: states start grouped
// by their one-step output signature and groups split until stable; each
// final group is represented by its lexicographically smallest member.
// Unreachable states are preserved (they keep their own groups), so the
// result is a pure quotient.
func (m *FSM) Minimize() (*FSM, map[State]State) {
	// Initial partition: by output signature over the full input alphabet.
	signature := func(s State, class map[State]int) string {
		var b strings.Builder
		for _, in := range m.inputs {
			t, ok := m.Lookup(s, in)
			if !ok {
				b.WriteString("|ε")
				continue
			}
			if class == nil {
				fmt.Fprintf(&b, "|%s", t.Output)
			} else {
				fmt.Fprintf(&b, "|%s>%d", t.Output, class[t.To])
			}
		}
		return b.String()
	}

	class := make(map[State]int, len(m.states))
	assign := func(sig func(State) string) int {
		groups := make(map[string]int)
		next := make(map[State]int, len(m.states))
		for _, s := range m.states {
			k := sig(s)
			id, ok := groups[k]
			if !ok {
				id = len(groups)
				groups[k] = id
			}
			next[s] = id
		}
		class = next
		return len(groups)
	}

	n := assign(func(s State) string { return signature(s, nil) })
	for {
		prev := n
		// Moore refinement: the new class key includes the old class, so
		// the partition only ever refines and the loop terminates.
		old := class
		n = assign(func(s State) string {
			return fmt.Sprintf("%d%s", old[s], signature(s, old))
		})
		if n == prev {
			break
		}
	}

	// Representative per class: smallest state name.
	rep := make(map[int]State)
	for _, s := range m.states {
		c := class[s]
		if r, ok := rep[c]; !ok || s < r {
			rep[c] = s
		}
	}
	mapping := make(map[State]State, len(m.states))
	for _, s := range m.states {
		mapping[s] = rep[class[s]]
	}

	stateSet := make(map[State]bool)
	var states []State
	for _, r := range rep {
		if !stateSet[r] {
			stateSet[r] = true
			states = append(states, r)
		}
	}
	sort.Slice(states, func(i, j int) bool { return states[i] < states[j] })

	var transitions []Transition
	seen := make(map[Key]bool)
	for _, t := range m.Transitions() {
		nt := Transition{
			Name:   t.Name,
			From:   mapping[t.From],
			Input:  t.Input,
			Output: t.Output,
			To:     mapping[t.To],
		}
		k := Key{From: nt.From, Input: nt.Input}
		if seen[k] {
			continue // merged with an equivalent transition
		}
		seen[k] = true
		transitions = append(transitions, nt)
	}

	min, err := New(m.name+"-min", mapping[m.initial], states, transitions)
	if err != nil {
		// The quotient of a valid machine is valid; a failure here is a
		// construction bug, surfaced loudly in tests.
		panic(fmt.Sprintf("fsm: minimize produced invalid machine: %v", err))
	}
	return min, mapping
}

// IsMinimal reports whether no two distinct states are equivalent.
func (m *FSM) IsMinimal() bool {
	min, _ := m.Minimize()
	return len(min.States()) == len(m.states)
}
