package core

import "cfsmdiag/internal/cfsm"

// Reference runs a diagnosis on the interpreted reference engine instead of
// the compiled one. It is the other side of every differential test.
var Reference Option = func(s *settings) { s.engine = systemEngine{} }

// VerifiedStatOut is what EscalateCombined's merge asks the engine for r:
// the statout couples over the candidates, verified under the analysis'
// matcher.
func (a *Analysis) VerifiedStatOut(r cfsm.Ref, candidates []cfsm.Symbol) []StateOutput {
	return a.engine().statOut(a, r, candidates)
}
