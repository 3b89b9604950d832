package compiled

import "cfsmdiag/internal/cfsm"

// NextUncovered exposes one step of Engine.Tour's search to the parity
// tests: a shortest sequence from cfg whose last step fires a transition
// outside covered.
func (e *Engine) NextUncovered(cfg []int32, covered cfsm.RefSet) ([]cfsm.Input, bool) {
	bits := NewBits(len(e.p.trans))
	for r := range covered {
		if i, ok := e.p.refIdx[r]; ok {
			bits.Set(i)
		}
	}
	return e.transferSearch(cfg, goal{covered: bits}, nil)
}

// FreshEngine returns an engine no program has used, bypassing the pool.
func FreshEngine(p *Program) *Engine { return newEngine(p) }

// Rebind does to e what Release and an EngineFor(p) that draws e from the
// pool do, without the pool, which may drop what it is given.
func (e *Engine) Rebind(p *Program) {
	e.unbind()
	e.bind(p)
}
