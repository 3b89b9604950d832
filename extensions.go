package cfsmdiag

import (
	"cfsmdiag/internal/async"
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/multifault"
	"cfsmdiag/internal/report"
	"cfsmdiag/internal/testgen"
)

// This file exposes the extensions that go beyond the paper's algorithm:
// the fault-model-complete verification suite, the addressing-fault model
// (the paper's future work), the at-most-two-faults diagnosis, and the
// unsynchronized-ports (nondeterministic) diagnosis.

// KindAddress is the addressing-fault extension: the transition's output is
// delivered to the wrong destination (set Fault.Dest).
const KindAddress = fault.KindAddress

// GenerateVerificationSuite builds a fault-model-complete test suite: it
// detects every single-transition fault that is detectable at all. The
// second result lists the faults no test can reveal (mutants equivalent to
// the specification).
func GenerateVerificationSuite(sys *System) ([]TestCase, []Fault) {
	return testgen.VerificationSuite(sys)
}

// ConcatSystems combines independent systems into one larger system with
// prefixed machine names and namespaced alphabets; LiftTestCase translates a
// part's test cases into the combined system.
func ConcatSystems(parts map[string]*System) (*System, error) {
	return cfsm.Concat(parts)
}

// LiftTestCase translates a test case of one part into a concatenated
// system (ports shifted by partOffset, symbols prefixed).
func LiftTestCase(tc TestCase, prefix string, partOffset int) TestCase {
	return cfsm.LiftTestCase(tc, prefix, partOffset)
}

// MinimizeSuite greedily drops test cases that add no single-transition
// fault-detection power, preserving the suite's detection set exactly.
func MinimizeSuite(spec *System, suite []TestCase) ([]TestCase, error) {
	return testgen.MinimizeSuite(spec, suite)
}

// EnumerateAddressFaults returns every valid addressing fault of the
// specification (KindAddress extension).
func EnumerateAddressFaults(spec *System) []Fault {
	return fault.EnumerateAddress(spec)
}

// Warning flags a specification property that weakens the diagnosis
// guarantees (equivalent states, unreachable transitions, single-symbol
// output classes, missing strong connectivity).
type Warning = core.Warning

// CheckAssumptions inspects a specification for properties that weaken the
// guarantees of the diagnosis algorithm; the warnings are advisory.
func CheckAssumptions(spec *System) []Warning {
	return core.CheckAssumptions(spec)
}

// Option configures Localize/Diagnose behaviour.
type Option = core.Option

// WithMaxAdditionalTests bounds the number of additional diagnostic tests.
func WithMaxAdditionalTests(n int) Option { return core.WithMaxAdditionalTests(n) }

// WithoutCombinedEscalation restores the paper's literal flag heuristic.
func WithoutCombinedEscalation() Option { return core.WithoutCombinedEscalation() }

// WithoutAddressEscalation disables the addressing-fault hypothesis tier.
func WithoutAddressEscalation() Option { return core.WithoutAddressEscalation() }

// LocalizeWith is Localize with options (budget, escalation control).
func LocalizeWith(a *Analysis, oracle Oracle, opts ...Option) (*Localization, error) {
	return core.Localize(a, oracle, opts...)
}

// Offline diagnosis: plan the next diagnostic tests without an interactive
// oracle (observations arrive as recorded logs).
type (
	// PlannedTest is a proposed additional diagnostic test with
	// per-hypothesis predictions.
	PlannedTest = core.PlannedTest
	// Prediction is one hypothesis' expected outcome for a planned test.
	Prediction = core.Prediction
)

// SuggestNextTests plans the first additional diagnostic test for every
// testable candidate of the analysis, with the outputs each hypothesis
// predicts — the offline counterpart of Step 6.
func SuggestNextTests(a *Analysis) []PlannedTest {
	return core.SuggestNextTests(a)
}

// MarkdownReport renders a complete diagnosis session — verdict, test
// results, candidate walkthrough, additional tests, and a Mermaid sequence
// diagram of the convicting test — as a Markdown document.
func MarkdownReport(loc *Localization) (string, error) {
	return report.Markdown(loc)
}

// Multi-fault diagnosis (the "special classes of multiple faults" future
// work): at most two faulty transitions, each with one single-transition
// fault.
type (
	// MultiHypothesis is a set of one or two faults on distinct transitions.
	MultiHypothesis = multifault.Hypothesis
	// MultiOptions tunes the double-fault analysis.
	MultiOptions = multifault.Options
	// MultiLocalization is the double-fault diagnosis outcome.
	MultiLocalization = multifault.Localization
)

// DiagnoseMulti runs the at-most-two-faults diagnosis end to end.
func DiagnoseMulti(spec *System, suite []TestCase, oracle Oracle, opts MultiOptions) (*MultiLocalization, error) {
	return multifault.Diagnose(spec, suite, oracle, opts)
}

// Unsynchronized-ports diagnosis (the "non-deterministic behaviors" future
// work): local testers apply inputs independently and the interleaving is
// uncontrolled.
type (
	// Script is an unsynchronized test: one input sequence per port.
	Script = async.Script
	// Outcome is one observation of a script: one output stream per port.
	Outcome = async.Outcome
	// AsyncOracle executes scripts against the implementation under test.
	AsyncOracle = async.Oracle
	// RandomAsyncOracle resolves input races with a seeded scheduler.
	RandomAsyncOracle = async.RandomOracle
	// AsyncLocalization is the nondeterministic diagnosis outcome.
	AsyncLocalization = async.Localization
)

// PossibleOutcomes enumerates every outcome a system admits for a script,
// across all interleavings of the per-port input sequences.
func PossibleOutcomes(sys *System, script Script) (async.OutcomeSet, error) {
	set, _, err := async.Outcomes(sys, script)
	return set, err
}

// DiagnoseAsync runs the conservative nondeterministic diagnosis end to end.
func DiagnoseAsync(spec *System, scripts []Script, oracle AsyncOracle) (*AsyncLocalization, error) {
	return async.Diagnose(spec, scripts, oracle)
}
