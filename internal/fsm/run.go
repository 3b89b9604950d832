package fsm

// Step applies one input in the given state. If the input is undefined in
// that state the machine stays put and the observation is Epsilon; the
// returned Transition is the zero value and ok is false.
func (m *FSM) Step(from State, input Symbol) (out Symbol, to State, tr Transition, ok bool) {
	t, defined := m.Lookup(from, input)
	if !defined {
		return Epsilon, from, Transition{}, false
	}
	return t.Output, t.To, t, true
}

// Run applies a sequence of inputs starting from the given state and returns
// the produced output sequence and the final state. Undefined inputs produce
// Epsilon and leave the state unchanged.
func (m *FSM) Run(from State, inputs []Symbol) (outs []Symbol, end State) {
	outs = make([]Symbol, 0, len(inputs))
	end = from
	for _, in := range inputs {
		out, next, _, _ := m.Step(end, in)
		outs = append(outs, out)
		end = next
	}
	return outs, end
}
