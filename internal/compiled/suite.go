package compiled

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// suiteCase is one test case lowered onto a Program together with everything
// Steps 1–4 derive from the specification alone: the compiled inputs, the
// specification's expected observations (compiled and decoded), the symptom
// transition of every step, and the first-execution order of transitions that
// conflict-set prefixes are cut from.
type suiteCase struct {
	inputs []cin
	// badInput is set when an input failed to compile (out-of-range port);
	// Explains then answers false, exactly like the interpreted per-mutant
	// run that fails on the same input.
	badInput bool
	// simErr is the error of simulating the case on the specification,
	// wrapped like cfsm.System.RunTrace's ("test case …, step …: …"). Any
	// analysis over the case reproduces the interpreted Analyze failure.
	simErr error
	// expC/exp are the specification's expected observation sequence in
	// compiled and decoded form (Step 1). exp is immutable, aliased into
	// every Analysis.Expected built from this suite, and always non-nil
	// (matching the interpreted simulator, which returns an empty slice for
	// an empty test case).
	expC []cobs
	exp  []cfsm.Observation
	// symTrans[j] is the transition that produced the observable output of
	// step j — the last external-output transition of the executed chain —
	// or -1 when the step fired none (Definition 4's symptom transition).
	symTrans []int32
	// firstExec lists transition indices in order of first execution across
	// the case; firstStep[k] is the 0-based step at which firstExec[k] first
	// ran. firstStep is non-decreasing, so the Step-4 conflict set of a
	// first symptom at step j is exactly the prefix of firstExec whose
	// firstStep entries are <= j.
	firstExec []int32
	firstStep []int32
	// cfgs is the specification run's configuration before each step, flat
	// with one len(p.machines) stride per step; snap marks it complete (the
	// whole case simulated without error). An overlay on transition t cannot
	// diverge from the specification before t first executes, so a replay
	// under the overlay may compare the prefix against expC and resume the
	// simulation at fireStep(t) from the snapshot (see explainsOverlay).
	cfgs []int32
	snap bool
}

// fireStep returns the 0-based step at which transition idx first executes
// in the specification run of this case, or len(inputs) when it never does.
func (c *suiteCase) fireStep(idx int32) int {
	for k, t := range c.firstExec {
		if t == idx {
			return int(c.firstStep[k])
		}
	}
	return len(c.inputs)
}

// conflictPrefix returns how many firstExec entries belong to the conflict
// set of a first symptom at step stop (Step 4: transitions executed up to and
// including the symptom's step).
func (c *suiteCase) conflictPrefix(stop int) int {
	k := len(c.firstExec)
	for k > 0 && c.firstStep[k-1] > int32(stop) {
		k--
	}
	return k
}

// Suite is a test suite compiled once against a Program. It precomputes the
// per-case data above, so a sweep lowers the suite a single time and shares
// the immutable result across every worker engine and every mutant, instead
// of re-simulating the specification per mutant (the interpreted Steps 1–3)
// and re-compiling the inputs per engine.
//
// A Suite is immutable after NewSuite and safe to share across goroutines.
type Suite struct {
	p     *Program
	key   *cfsm.TestCase // identity of the source slice, for cache checks
	n     int
	cases []suiteCase
	// expected aliases the per-case exp slices in suite order, ready to be
	// used as an Analysis.Expected.
	expected [][]cfsm.Observation
}

// NewSuite lowers a test suite onto the program. Input-compile and
// specification-simulation failures are recorded per case, not returned: the
// analysis that touches a failing case reproduces the interpreted error.
func NewSuite(p *Program, suite []cfsm.TestCase) *Suite {
	s := &Suite{p: p, n: len(suite), cases: make([]suiteCase, len(suite))}
	if len(suite) > 0 {
		s.key = &suite[0]
	}
	r := p.NewRunner()
	defer r.Flush()
	for i, tc := range suite {
		s.cases[i] = compileSuiteCase(p, r, tc)
		s.expected = append(s.expected, s.cases[i].exp)
	}
	return s
}

// Matches reports whether the suite was compiled from exactly this slice
// (identity, not content — the same convention as the engine's caches).
func (s *Suite) Matches(suite []cfsm.TestCase) bool {
	if s == nil || s.n != len(suite) {
		return false
	}
	return len(suite) == 0 || s.key == &suite[0]
}

// compileSuiteCase lowers one test case and simulates it on the
// specification, recording expected observations, symptom transitions and
// the first-execution order.
func compileSuiteCase(p *Program, r *Runner, tc cfsm.TestCase) suiteCase {
	c := suiteCase{exp: make([]cfsm.Observation, 0, len(tc.Inputs))}
	r.SetOverlay(None())
	seen := NewBits(len(p.trans))
	record := func(idx int32, step int) {
		if idx >= 0 && !seen.Has(idx) {
			seen.Set(idx)
			c.firstExec = append(c.firstExec, idx)
			c.firstStep = append(c.firstStep, int32(step))
		}
	}
	for i, in := range tc.Inputs {
		ci, err := p.compileInput(in)
		if err != nil {
			c.badInput = true
			if c.simErr == nil {
				c.simErr = fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
			}
			return c
		}
		c.inputs = append(c.inputs, ci)
		if c.simErr != nil {
			// The specification simulation already failed; keep compiling
			// inputs so Explains can still replay the full case on mutants.
			continue
		}
		c.cfgs = append(c.cfgs, r.cfg...)
		o, e1, e2, err := r.step(ci)
		if err != nil {
			c.simErr = fmt.Errorf("test case %s, step %d (%v): %w", tc.Name, i+1, in, err)
			continue
		}
		c.expC = append(c.expC, o)
		c.exp = append(c.exp, p.decodeObs(o))
		record(e1, i)
		record(e2, i)
		// The symptom transition is the last external transition of the
		// executed chain: e2 when present (always external — a validated
		// system forbids chained internal outputs), else an external e1.
		sym := int32(-1)
		switch {
		case e2 >= 0:
			sym = e2
		case e1 >= 0 && !p.trans[e1].Internal():
			sym = e1
		}
		c.symTrans = append(c.symTrans, sym)
	}
	c.snap = c.simErr == nil
	return c
}

// RunTrace reports the specification run of suite[i] in the shape of
// cfsm.System.RunTrace: the observations, the transitions each input
// executed and, when the run failed, the inputs before the failing one with
// the wrapped simulator error. The transitions are re-stepped from the
// compiled suite's per-step configuration snapshots, so the run reported is
// the one the suite compilation simulated and no simulator step is counted
// again. Only traced analyses call it.
func (e *Engine) RunTrace(suite []cfsm.TestCase, i int) ([]cfsm.Observation, [][]cfsm.Executed, error) {
	p := e.p
	c := &e.suiteFor(suite).cases[i]
	n := len(p.machines)
	cfg := make([]int32, n)
	steps := make([][]cfsm.Executed, len(c.exp))
	for j := range c.exp {
		in := c.inputs[j]
		if in.reset {
			continue
		}
		copy(cfg, c.cfgs[j*n:(j+1)*n])
		_, e1, e2, _ := p.stepCfg(cfg, None(), stim{port: in.port, sym: in.sym})
		for _, idx := range [2]int32{e1, e2} {
			if idx >= 0 {
				t, _ := p.src.Machine(int(p.trans[idx].Machine)).ByName(p.names[idx])
				steps[j] = append(steps[j], cfsm.Executed{Machine: int(p.trans[idx].Machine), Trans: t})
			}
		}
	}
	return c.exp, steps, c.simErr
}

// Tour builds the greedy transition tour of the specification that
// testgen.Tour documents: each step is a shortest sequence, from where the
// current test case stands, whose last input fires a transition not yet
// covered; when none is left reachable the case closes and the next one
// starts from the initial configuration.
func (e *Engine) Tour(maxLen int) (suite []cfsm.TestCase, uncovered []cfsm.Ref) {
	p := e.p
	covered := NewBits(len(p.trans))
	cfg := append([]int32(nil), p.start...)
	var current cfsm.TestCase
	closeCase := func() {
		if len(current.Inputs) > 1 {
			suite = append(suite, current)
		}
		current = cfsm.TestCase{Name: fmt.Sprintf("tour%d", len(suite)+1), Inputs: []cfsm.Input{cfsm.Reset()}}
		copy(cfg, p.start)
	}
	closeCase()
	for covered.Count() < len(p.trans) {
		seq, ok := e.transferSearch(cfg, goal{covered: covered}, nil)
		if !ok && len(current.Inputs) == 1 {
			break // the rest is unreachable from the initial configuration
		}
		if !ok || maxLen > 0 && len(current.Inputs)+len(seq) > maxLen && len(current.Inputs) > 1 {
			closeCase()
			continue
		}
		for _, in := range seq {
			_, e1, e2, _ := p.stepCfg(cfg, None(), stim{port: int32(in.Port), sym: p.symID[in.Sym]})
			for _, t := range [2]int32{e1, e2} {
				if t >= 0 {
					covered.Set(t)
				}
			}
		}
		cfsm.RecordSimulated(int64(len(seq)), 0)
		current.Inputs = append(current.Inputs, seq...)
	}
	closeCase()
	for t := range p.trans {
		if !covered.Has(int32(t)) {
			uncovered = append(uncovered, p.Ref(int32(t)))
		}
	}
	return suite, uncovered
}

// Err returns the error of the first case whose specification run failed,
// wrapped as cfsm.System.Run wraps it, or nil.
func (s *Suite) Err() error {
	for i := range s.cases {
		if err := s.cases[i].simErr; err != nil {
			return err
		}
	}
	return nil
}
