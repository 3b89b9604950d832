// Package testgen generates test suites for CFSM specifications and judges
// their power: transition tours (the initial suite TS the paper assumes),
// fault-model-complete verification suites, their minimization, and the
// detection report of a suite against the single-transition fault model.
// Each compiles the specification once and runs on the compiled engine's
// searches and one-cell fault overlays (internal/compiled). The parity
// tests compare each with its interpreted form over the reference searches
// of internal/refsearch.
package testgen

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
)

// engine compiles the specification.
func engine(sys *cfsm.System) *compiled.Engine {
	e, err := compiled.NewEngine(sys)
	if err != nil {
		panic(err) // NewEngine fails only on a nil system
	}
	return e
}
