package compiled

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// cin is one compiled test-case input. sym is -1 when the input symbol is
// not in the program's alphabet (it then behaves as undefined everywhere,
// exactly as under the interpreted simulator).
type cin struct {
	reset bool
	port  int32
	sym   int32
}

// cobs is one compiled observation. sym is -1 for symbols outside the
// program's alphabet; predicted observations always decode to alphabet
// symbols, so a -1 never matches, mirroring the interpreted comparison.
type cobs struct {
	sym  int32
	port int32
}

// Runner executes inputs against a program under an overlay, reusing its
// configuration buffer so a steady-state step performs no heap allocation.
// It is the compiled counterpart of cfsm.Runner and has the exact semantics
// of cfsm.System.Apply over the overlaid system.
//
// A Runner is NOT safe for concurrent use; give each goroutine its own. The
// Program is immutable and may be shared freely.
//
// Simulator steps and resets are counted locally and flushed to the
// process-wide instrumentation (cfsm.InstrumentSimulator) in batches by
// Flush; Run and RunInputs flush on return.
type Runner struct {
	p   *Program
	ov  Overlay
	cfg []int32
	// steps/resets accumulate until Flush, replacing the per-step atomic
	// hook of the interpreted simulator.
	steps  int64
	resets int64
}

// NewRunner returns a runner for the specification itself (no overlay),
// positioned at the initial configuration.
func (p *Program) NewRunner() *Runner { return p.RunnerFor(None()) }

// RunnerFor returns a runner executing the program under the given overlay.
func (p *Program) RunnerFor(ov Overlay) *Runner {
	r := &Runner{p: p, ov: ov, cfg: make([]int32, len(p.machines))}
	r.restart()
	return r
}

// SetOverlay swaps the runner's overlay and restarts it from the initial
// configuration (without counting a reset, matching a fresh interpreted
// runner).
func (r *Runner) SetOverlay(ov Overlay) {
	r.ov = ov
	r.restart()
}

// restart positions the runner at the initial configuration without counting
// a reset — the compiled equivalent of constructing a fresh cfsm.Runner.
func (r *Runner) restart() { copy(r.cfg, r.p.start) }

// Reset returns the runner to the initial configuration, counting a reset
// like cfsm.Runner.Reset.
func (r *Runner) Reset() {
	r.resets++
	r.restart()
}

// Flush transfers the locally counted steps and resets to the process-wide
// simulator instrumentation and zeroes the local counters.
func (r *Runner) Flush() {
	cfsm.RecordSimulated(r.steps, r.resets)
	r.steps, r.resets = 0, 0
}

// stepCfg processes one non-reset external stimulus against an arbitrary
// configuration buffer under an overlay, mirroring cfsm.System.Apply:
// undefined inputs observe Epsilon at the addressed port without moving;
// external outputs are observed at the sender's port; internal outputs
// trigger the receiver's transition (or silence when undefined there). e1
// and e2 report the executed transition indices (-1 = none) for avoid-set
// checks.
//
// ok is false only for a chained internal output — then e1/e2 identify the
// offending pair so the caller can build the interpreted error. A legal
// overlay over a validated system can never produce it.
func (p *Program) stepCfg(cfg []int32, ov Overlay, in stim) (obs cobs, e1, e2 int32, ok bool) {
	e1, e2 = -1, -1
	var ti int32
	if in.sym >= 0 {
		ti = p.machines[in.port].lookup[int(cfg[in.port])*len(p.syms)+int(in.sym)]
	}
	if ti == 0 {
		return cobs{sym: p.epsID, port: in.port}, -1, -1, true
	}
	idx := ti - 1
	out, to, dest := ov.eff(idx, p.trans[idx])
	cfg[in.port] = to
	e1 = idx
	if dest < 0 {
		return cobs{sym: out, port: in.port}, e1, -1, true
	}
	j := dest
	ti2 := p.machines[j].lookup[int(cfg[j])*len(p.syms)+int(out)]
	if ti2 == 0 {
		// The forwarded symbol is undefined in the receiver's current state:
		// nothing observable happens at the receiver beyond silence.
		return cobs{sym: p.epsID, port: j}, e1, -1, true
	}
	idx2 := ti2 - 1
	out2, to2, dest2 := ov.eff(idx2, p.trans[idx2])
	if dest2 >= 0 {
		return cobs{}, idx, idx2, false
	}
	cfg[j] = to2
	e2 = idx2
	return cobs{sym: out2, port: j}, e1, e2, true
}

// step processes one compiled input on the runner, mirroring
// cfsm.Runner.step over the overlaid system (resets restore the initial
// configuration and observe Null).
func (r *Runner) step(in cin) (obs cobs, e1, e2 int32, err error) {
	r.steps++
	p := r.p
	if in.reset {
		r.resets++
		r.restart()
		return cobs{sym: p.nullID, port: in.port}, -1, -1, nil
	}
	o, e1, e2, ok := p.stepCfg(r.cfg, r.ov, stim{port: in.port, sym: in.sym})
	if !ok {
		return cobs{}, -1, -1, fmt.Errorf("%w: %s.%s -> %s.%s",
			cfsm.ErrChainedInternal,
			p.machines[p.trans[e1].Machine].name, p.names[e1], p.machines[p.trans[e2].Machine].name, p.names[e2])
	}
	return o, e1, e2, nil
}

// compileInput lowers one external input. An error is returned for a port
// outside the system, with the interpreted simulator's message.
func (p *Program) compileInput(in cfsm.Input) (cin, error) {
	if in.IsReset() {
		return cin{reset: true, port: int32(in.Port)}, nil
	}
	if in.Port < 0 || in.Port >= len(p.machines) {
		return cin{}, fmt.Errorf("cfsm: input %v addresses unknown port %d", in, in.Port)
	}
	sym, ok := p.symID[in.Sym]
	if !ok {
		sym = -1
	}
	return cin{port: int32(in.Port), sym: sym}, nil
}

// compileInputs lowers an input sequence into dst (reused when capacity
// allows).
func (p *Program) compileInputs(inputs []cfsm.Input, dst []cin) ([]cin, error) {
	dst = dst[:0]
	for _, in := range inputs {
		ci, err := p.compileInput(in)
		if err != nil {
			return nil, err
		}
		dst = append(dst, ci)
	}
	return dst, nil
}

// compileObs lowers an observation sequence; unknown symbols become the -1
// sentinel that matches no prediction.
func (p *Program) compileObs(obs []cfsm.Observation, dst []cobs) []cobs {
	dst = dst[:0]
	for _, o := range obs {
		sym, ok := p.symID[o.Sym]
		if !ok {
			sym = -1
		}
		dst = append(dst, cobs{sym: sym, port: int32(o.Port)})
	}
	return dst
}

// decodeObs converts a compiled observation back to the reporting form.
func (p *Program) decodeObs(o cobs) cfsm.Observation {
	return cfsm.Observation{Sym: p.Symbol(o.sym), Port: int(o.port)}
}

// Run executes a test case from the initial configuration and returns the
// observation sequence, mirroring cfsm.Runner.Run (including its error
// wrapping). The runner is left in the configuration the case reaches.
func (r *Runner) Run(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	defer r.Flush()
	obs := make([]cfsm.Observation, 0, len(tc.Inputs))
	for i, in := range tc.Inputs {
		ci, err := r.p.compileInput(in)
		if err != nil {
			return nil, fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
		}
		o, _, _, err := r.step(ci)
		if err != nil {
			return nil, fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
		}
		obs = append(obs, r.p.decodeObs(o))
	}
	return obs, nil
}

// RunSuite executes every test case of a suite from a restart each, and
// returns the observation sequences in suite order, mirroring
// cfsm.System.RunSuite.
func (r *Runner) RunSuite(suite []cfsm.TestCase) ([][]cfsm.Observation, error) {
	out := make([][]cfsm.Observation, len(suite))
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

// Oracle adapts a compiled runner to core.Oracle, counting executed tests
// and inputs exactly like core.SystemOracle. It backs the mutant side of the
// compiled sweep: the overlay realizes the injected fault.
type Oracle struct {
	R      *Runner
	Tests  int
	Inputs int
}

// Execute runs the test case on the overlaid program from the initial
// configuration.
func (o *Oracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	o.Tests++
	o.Inputs += len(tc.Inputs)
	o.R.restart()
	return o.R.Run(tc)
}
