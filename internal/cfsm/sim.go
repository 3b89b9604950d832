package cfsm

import (
	"errors"
	"fmt"
	"strings"
)

// Input is one step of a test case: a symbol applied at a machine's external
// port. Port is the 0-based machine index; the paper's superscript notation
// a¹ corresponds to Input{Port: 0, Sym: "a"}. The reset input R may be
// applied at any port and resets the whole system.
type Input struct {
	Port int
	Sym  Symbol
}

// Reset returns the reset input (the port is irrelevant for resets).
func Reset() Input { return Input{Port: 0, Sym: ResetSymbol} }

// IsReset reports whether the input is the system reset.
func (in Input) IsReset() bool { return in.Sym == ResetSymbol }

// String renders the input in the paper's superscript-free style, "a^1".
// Resets render as "R".
func (in Input) String() string {
	if in.IsReset() {
		return string(ResetSymbol)
	}
	return fmt.Sprintf("%s^%d", in.Sym, in.Port+1)
}

// Observation is the externally visible effect of one input: an output
// symbol observed at a port. A reset observes Null; an input undefined in
// the current state observes Epsilon.
type Observation struct {
	Sym  Symbol
	Port int
}

// String renders the observation as "c'^1"; Null renders as "-".
func (o Observation) String() string {
	if o.Sym == Null {
		return string(Null)
	}
	return fmt.Sprintf("%s^%d", o.Sym, o.Port+1)
}

// ObsEqual reports whether two observation sequences are identical.
func ObsEqual(a, b []Observation) bool {
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

// FormatObs renders an observation sequence like the rows of Table 1,
// e.g. "-, c'^1, a^3, a^2, b^3, d'^1".
func FormatObs(obs []Observation) string {
	parts := make([]string, len(obs))
	for i, o := range obs {
		parts[i] = o.String()
	}
	return strings.Join(parts, ", ")
}

// FormatInputs renders an input sequence like "R, a^1, c'^3, c^1, t^2, x^3".
func FormatInputs(ins []Input) string {
	parts := make([]string, len(ins))
	for i, in := range ins {
		parts[i] = in.String()
	}
	return strings.Join(parts, ", ")
}

// TestCase is a named sequence of inputs.
type TestCase struct {
	Name   string
	Inputs []Input
}

// String renders the test case as its input sequence.
func (tc TestCase) String() string { return cFormatTC(tc) }

func cFormatTC(tc TestCase) string {
	if tc.Name == "" {
		return FormatInputs(tc.Inputs)
	}
	return tc.Name + ": " + FormatInputs(tc.Inputs)
}

// Executed records one transition fired while processing an input, for use
// in conflict-set construction (Step 4 of the algorithm).
type Executed struct {
	Machine int
	Trans   Transition
}

// Ref returns the global reference of the executed transition.
func (e Executed) Ref() Ref { return Ref{Machine: e.Machine, Name: e.Trans.Name} }

// ErrChainedInternal is returned when an internal output triggers another
// internal-output transition, which the model forbids. A validated system
// can never produce it; it guards against corrupted or hand-built systems.
var ErrChainedInternal = errors.New("cfsm: internal output triggered another internal-output transition")

// Apply processes a single input in the given configuration under the
// synchronization assumption and returns the successor configuration, the
// observation, and the transitions executed (at most two: an internal-output
// transition and the external-output transition it triggers).
//
// Semantics, following Section 2:
//   - a reset returns the initial configuration and observes Null;
//   - an input undefined in the addressed machine's current state leaves the
//     configuration unchanged and observes Epsilon at the addressed port;
//   - an external-output transition observes its output at its own port;
//   - an internal-output transition forwards its output to the destination
//     machine, whose (external) transition on that symbol produces the
//     observation at the destination port; if the destination machine has no
//     transition for the symbol in its current state, Epsilon is observed at
//     the destination port.
//
// When no transition fires (the undefined-input case) the configuration is
// unchanged and Apply returns cfg itself, not a copy; callers that mutate the
// successor must clone it first. Whenever a transition fires the returned
// configuration is a fresh clone. Apply never mutates cfg.
//
// Apply is safe for concurrent use: a System is immutable after
// construction, so any number of goroutines may simulate the same System
// (each with its own Config) in parallel.
func (s *System) Apply(cfg Config, in Input) (Config, Observation, []Executed, error) {
	recordStep()
	if in.IsReset() {
		recordReset()
		return s.InitialConfig(), Observation{Sym: Null, Port: in.Port}, nil, nil
	}
	if in.Port < 0 || in.Port >= len(s.machines) {
		return nil, Observation{}, nil, fmt.Errorf("cfsm: input %v addresses unknown port %d", in, in.Port)
	}
	if len(cfg) != len(s.machines) {
		return nil, Observation{}, nil, fmt.Errorf("cfsm: configuration has %d entries for %d machines", len(cfg), len(s.machines))
	}
	m := s.machines[in.Port]
	t, ok := m.Lookup(cfg[in.Port], in.Sym)
	if !ok {
		// The configuration is unchanged: share it instead of cloning. This
		// removes the dominant allocation when simulating partial machines.
		return cfg, Observation{Sym: Epsilon, Port: in.Port}, nil, nil
	}
	next := cfg.Clone()
	next[in.Port] = t.To
	trace := []Executed{{Machine: in.Port, Trans: t}}
	if !t.Internal() {
		return next, Observation{Sym: t.Output, Port: in.Port}, trace, nil
	}
	j := t.Dest
	recv := s.machines[j]
	t2, ok := recv.Lookup(next[j], t.Output)
	if !ok {
		// The forwarded symbol is undefined in the receiver's current state:
		// nothing observable happens at the receiver beyond silence.
		return next, Observation{Sym: Epsilon, Port: j}, trace, nil
	}
	if t2.Internal() {
		return nil, Observation{}, nil, fmt.Errorf("%w: %s.%s -> %s.%s",
			ErrChainedInternal, m.name, t.Name, recv.name, t2.Name)
	}
	next[j] = t2.To
	trace = append(trace, Executed{Machine: j, Trans: t2})
	return next, Observation{Sym: t2.Output, Port: j}, trace, nil
}

// Runner executes inputs against a system while reusing a scratch
// configuration and trace buffer, so that a steady-state step performs no
// heap allocation (Apply, by contrast, clones the configuration whenever a
// transition fires). It is the simulator hot path under Run, RunTrace and
// RunSuite, and the tool of choice for long-running simulations such as the
// exhaustive mutant sweeps.
//
// A Runner is NOT safe for concurrent use; give each goroutine its own
// Runner. The System it runs is immutable and may be shared freely.
type Runner struct {
	sys   *System
	cfg   Config
	trace [2]Executed
}

// NewRunner returns a Runner positioned at the system's initial
// configuration.
func (s *System) NewRunner() *Runner {
	return &Runner{sys: s, cfg: s.InitialConfig()}
}

// Reset returns the runner to the initial configuration without allocating.
func (r *Runner) Reset() {
	recordReset()
	for i, m := range r.sys.machines {
		r.cfg[i] = m.initial
	}
}

// Step processes one input in place, advancing the runner's configuration.
// It has the exact semantics of System.Apply but reuses the runner's scratch
// buffers: the returned Executed slice is valid only until the next Step or
// Reset (clone it to retain it). After a non-nil error the runner's
// configuration is unspecified; Reset before reusing it.
func (r *Runner) Step(in Input) (Observation, []Executed, error) {
	recordStep()
	s := r.sys
	if in.IsReset() {
		r.Reset()
		return Observation{Sym: Null, Port: in.Port}, nil, nil
	}
	if in.Port < 0 || in.Port >= len(s.machines) {
		return Observation{}, nil, fmt.Errorf("cfsm: input %v addresses unknown port %d", in, in.Port)
	}
	m := s.machines[in.Port]
	t, ok := m.Lookup(r.cfg[in.Port], in.Sym)
	if !ok {
		return Observation{Sym: Epsilon, Port: in.Port}, nil, nil
	}
	r.cfg[in.Port] = t.To
	r.trace[0] = Executed{Machine: in.Port, Trans: t}
	if !t.Internal() {
		return Observation{Sym: t.Output, Port: in.Port}, r.trace[:1], nil
	}
	j := t.Dest
	recv := s.machines[j]
	t2, ok := recv.Lookup(r.cfg[j], t.Output)
	if !ok {
		// The forwarded symbol is undefined in the receiver's current state:
		// nothing observable happens at the receiver beyond silence.
		return Observation{Sym: Epsilon, Port: j}, r.trace[:1], nil
	}
	if t2.Internal() {
		return Observation{}, nil, fmt.Errorf("%w: %s.%s -> %s.%s",
			ErrChainedInternal, m.name, t.Name, recv.name, t2.Name)
	}
	r.cfg[j] = t2.To
	r.trace[1] = Executed{Machine: j, Trans: t2}
	return Observation{Sym: t2.Output, Port: j}, r.trace[:2], nil
}

// Run executes a test case from the initial configuration and returns the
// observation sequence. The runner is left in the configuration the test
// case reaches.
func (r *Runner) Run(tc TestCase) ([]Observation, error) {
	obs := make([]Observation, 0, len(tc.Inputs))
	for i, in := range tc.Inputs {
		o, _, err := r.Step(in)
		if err != nil {
			return nil, fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
		}
		obs = append(obs, o)
	}
	return obs, nil
}

// Run executes a test case from the initial configuration and returns the
// observation sequence.
func (s *System) Run(tc TestCase) ([]Observation, error) {
	r := s.NewRunner()
	return r.Run(tc)
}

// RunTrace executes a test case from the initial configuration and returns
// the observation sequence together with, for each input, the transitions
// the system executed while processing it. On error the observations and
// transitions of the inputs before the failing one are returned with it.
func (s *System) RunTrace(tc TestCase) ([]Observation, [][]Executed, error) {
	r := s.NewRunner()
	obs := make([]Observation, 0, len(tc.Inputs))
	steps := make([][]Executed, 0, len(tc.Inputs))
	for i, in := range tc.Inputs {
		o, ex, err := r.Step(in)
		if err != nil {
			return obs, steps, fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
		}
		obs = append(obs, o)
		// The runner's trace buffer is reused on the next Step; copy the
		// entries that must outlive it. Steps that fire no transition record
		// nil, matching the historical Apply-based behaviour.
		if len(ex) == 0 {
			steps = append(steps, nil)
		} else {
			steps = append(steps, append([]Executed(nil), ex...))
		}
	}
	return obs, steps, nil
}

// RunSuite executes every test case of a suite and returns the observation
// sequences in suite order. A single runner is reused across the suite, so
// per-case cost is one observation-slice allocation.
func (s *System) RunSuite(suite []TestCase) ([][]Observation, error) {
	r := s.NewRunner()
	out := make([][]Observation, len(suite))
	for i, tc := range suite {
		r.Reset()
		obs, err := r.Run(tc)
		if err != nil {
			return nil, err
		}
		out[i] = obs
	}
	return out, nil
}
