package fsm

import "sort"

// Avoid is a predicate over transitions; a true result means the transition
// must not be exercised by a generated sequence. A nil Avoid forbids nothing.
//
// Step 6 of the diagnosis algorithm requires transfer sequences and
// characterization sequences "chosen in such a manner that they do not
// involve any candidate transition"; callers express that constraint here.
type Avoid func(Transition) bool

// TransferSequence returns a shortest input sequence leading the machine from
// one state to another while exercising only non-avoided transitions. The
// empty sequence is returned when from == to. ok is false when no such
// sequence exists.
func (m *FSM) TransferSequence(from, to State, avoid Avoid) (seq []Symbol, ok bool) {
	if from == to {
		return nil, true
	}
	type node struct {
		state State
		path  []Symbol
	}
	seen := map[State]bool{from: true}
	frontier := []node{{state: from}}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, in := range m.inputs {
			t, defined := m.Lookup(n.state, in)
			if !defined || (avoid != nil && avoid(t)) {
				continue
			}
			if seen[t.To] {
				continue
			}
			path := append(append([]Symbol(nil), n.path...), in)
			if t.To == to {
				return path, true
			}
			seen[t.To] = true
			frontier = append(frontier, node{state: t.To, path: path})
		}
	}
	return nil, false
}

// pairKey orders a state pair canonically so the pair BFS visits each
// unordered pair once.
type pairKey struct{ a, b State }

func makePair(a, b State) pairKey {
	if b < a {
		a, b = b, a
	}
	return pairKey{a: a, b: b}
}

// DistinguishingSequence returns a shortest input sequence whose output
// sequence differs when applied in state a versus state b, using only
// non-avoided transitions in both runs. Undefined inputs yield Epsilon, so a
// defined-versus-undefined input already distinguishes. ok is false when the
// two states are equivalent under the avoidance constraint.
func (m *FSM) DistinguishingSequence(a, b State, avoid Avoid) (seq []Symbol, ok bool) {
	if a == b {
		return nil, false
	}
	type node struct {
		a, b State
		path []Symbol
	}
	seen := map[pairKey]bool{makePair(a, b): true}
	frontier := []node{{a: a, b: b}}
	for len(frontier) > 0 {
		n := frontier[0]
		frontier = frontier[1:]
		for _, in := range m.inputs {
			ta, okA := m.Lookup(n.a, in)
			tb, okB := m.Lookup(n.b, in)
			if avoid != nil {
				// An avoided transition may not be exercised in either run.
				if (okA && avoid(ta)) || (okB && avoid(tb)) {
					continue
				}
			}
			outA, nextA := Epsilon, n.a
			if okA {
				outA, nextA = ta.Output, ta.To
			}
			outB, nextB := Epsilon, n.b
			if okB {
				outB, nextB = tb.Output, tb.To
			}
			path := append(append([]Symbol(nil), n.path...), in)
			if outA != outB {
				return path, true
			}
			if nextA == nextB {
				continue // merged: nothing downstream can distinguish
			}
			k := makePair(nextA, nextB)
			if seen[k] {
				continue
			}
			seen[k] = true
			frontier = append(frontier, node{a: nextA, b: nextB, path: path})
		}
	}
	return nil, false
}

// CharacterizationSet returns a "limited characterization set" W for the
// given states: a set of input sequences such that every pair of the given
// states is distinguished by at least one sequence in the set (Step 6(a) of
// the paper). Pairs that cannot be distinguished under the avoidance
// constraint are reported in the second return value; when it is empty the
// set fully separates the states.
func (m *FSM) CharacterizationSet(states []State, avoid Avoid) (w [][]Symbol, indistinct [][2]State) {
	type seqKey string
	have := make(map[seqKey]bool)
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			a, b := states[i], states[j]
			if a == b {
				continue
			}
			// A sequence already collected may separate this pair.
			if separatedBy(m, a, b, w) {
				continue
			}
			seq, ok := m.DistinguishingSequence(a, b, avoid)
			if !ok {
				indistinct = append(indistinct, [2]State{a, b})
				continue
			}
			k := seqKey(joinSymbols(seq))
			if !have[k] {
				have[k] = true
				w = append(w, seq)
			}
		}
	}
	sort.Slice(w, func(i, j int) bool { return joinSymbols(w[i]) < joinSymbols(w[j]) })
	return w, indistinct
}

func separatedBy(m *FSM, a, b State, w [][]Symbol) bool {
	for _, seq := range w {
		outA, _ := m.Run(a, seq)
		outB, _ := m.Run(b, seq)
		if !symbolsEqual(outA, outB) {
			return true
		}
	}
	return false
}

func symbolsEqual(a, b []Symbol) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func joinSymbols(seq []Symbol) string {
	out := ""
	for i, s := range seq {
		if i > 0 {
			out += "."
		}
		out += string(s)
	}
	return out
}
