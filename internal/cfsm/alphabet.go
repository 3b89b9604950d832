package cfsm

import "sort"

// The alphabet accessors compute the input/output partition of Section 2.1
// from the transition relation: IEO_i and IIO_i partition machine i's input
// alphabet, OEO_i collects outputs addressed to the machine's own port, and
// OIO_{i>j} collects outputs machine i sends to machine j. The diagnosis
// algorithm uses OEO and OIO as the hypothesis spaces for output faults.

func symbolSet(syms map[Symbol]bool) []Symbol {
	out := make([]Symbol, 0, len(syms))
	for s := range syms {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IEO returns the inputs of machine i's external-output transitions, sorted.
func (s *System) IEO(i int) []Symbol {
	set := make(map[Symbol]bool)
	for _, t := range s.machines[i].transitions() {
		if !t.Internal() {
			set[t.Input] = true
		}
	}
	return symbolSet(set)
}

// IIO returns the inputs of machine i's internal-output transitions, sorted.
func (s *System) IIO(i int) []Symbol {
	set := make(map[Symbol]bool)
	for _, t := range s.machines[i].transitions() {
		if t.Internal() {
			set[t.Input] = true
		}
	}
	return symbolSet(set)
}

// Inputs returns machine i's full input alphabet I_i = IEO_i ∪ IIO_i, sorted.
func (s *System) Inputs(i int) []Symbol {
	set := make(map[Symbol]bool)
	for _, t := range s.machines[i].transitions() {
		set[t.Input] = true
	}
	return symbolSet(set)
}

// AllInputs returns every applicable external stimulus of the system — each
// symbol of each machine's input alphabet applied at that machine's port —
// in deterministic (port, symbol) order. The reset input is not included.
// It is the input universe of every transfer and distinguishing search.
func (s *System) AllInputs() []Input {
	var out []Input
	for port := range s.machines {
		for _, sym := range s.Inputs(port) {
			out = append(out, Input{Port: port, Sym: sym})
		}
	}
	return out
}

// OEO returns the outputs of machine i's external-output transitions, sorted.
func (s *System) OEO(i int) []Symbol {
	set := make(map[Symbol]bool)
	for _, t := range s.machines[i].transitions() {
		if !t.Internal() {
			set[t.Output] = true
		}
	}
	return symbolSet(set)
}

// OIO returns the outputs machine i addresses to machine j, sorted. It is
// the hypothesis space for output faults of internal-output transitions
// (Step 5B: "we check all outputs in the set OIO_{i>j} … with the exception
// of the expected output").
func (s *System) OIO(i, j int) []Symbol {
	set := make(map[Symbol]bool)
	for _, t := range s.machines[i].transitions() {
		if t.Internal() && t.Dest == j {
			set[t.Output] = true
		}
	}
	return symbolSet(set)
}

// AlternativeOutputs returns the output-fault hypothesis space for the
// referenced transition: the outputs the transition's class admits (OEO_i
// for external-output transitions, OIO_{i>j} for internal ones) minus the
// specified output. The paper's fault model restricts output faults to the
// message-type component, so the address (Dest) is never varied.
func (s *System) AlternativeOutputs(r Ref) []Symbol {
	t, ok := s.Transition(r)
	if !ok {
		return nil
	}
	var pool []Symbol
	if t.Internal() {
		pool = s.OIO(r.Machine, t.Dest)
	} else {
		pool = s.OEO(r.Machine)
	}
	out := make([]Symbol, 0, len(pool))
	for _, o := range pool {
		if o != t.Output {
			out = append(out, o)
		}
	}
	return out
}
