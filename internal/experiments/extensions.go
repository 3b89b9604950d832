package experiments

import (
	"context"
	"math/rand"

	"cfsmdiag/internal/async"
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/multifault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// AddressSweepResult aggregates the addressing-fault sweep (experiment E7,
// exercising the paper's future-work fault-model extension).
type AddressSweepResult struct {
	Mutants    int
	Undetected int
	Correct    int // localized (or ambiguous-containing) on the right transition
	Wrong      int
}

// RunAddressSweep injects every valid addressing fault into the Figure 1
// system, diagnoses each mutant with the verification suite, and classifies
// the outcomes: Correct counts the localized-correct and
// ambiguous-contains-truth verdicts, Wrong every detected mutant besides.
func RunAddressSweep(spec *cfsm.System, suite []cfsm.TestCase) (AddressSweepResult, error) {
	var res AddressSweepResult
	outcomes, err := mapMutants(context.Background(), spec, suite, fault.EnumerateAddress(spec), 1, nil,
		func(ctx context.Context, w sweepWorker, f fault.Fault) (MutantOutcome, error) {
			loc, _, err := w.diagnose(ctx, f)
			if err != nil {
				return 0, err
			}
			var report MutantReport
			classifyOutcome(loc, f, &report, nil)
			return report.Outcome, nil
		})
	res.Mutants = len(outcomes)
	for _, o := range outcomes {
		switch o {
		case OutcomeUndetected:
			res.Undetected++
		case OutcomeLocalizedCorrect, OutcomeAmbiguousContainsTruth:
			res.Correct++
		default:
			res.Wrong++
		}
	}
	return res, err
}

// DoubleFaultDemoResult is the outcome of the double-fault demonstration
// (experiment E8).
type DoubleFaultDemoResult struct {
	Injected  string
	Verdict   core.Verdict
	Localized string
	Tests     int
}

// RunDoubleFaultDemo injects a pair of faults into the Figure 1 system and
// runs the at-most-two-faults diagnosis.
func RunDoubleFaultDemo() (DoubleFaultDemoResult, error) {
	spec := paper.MustFigure1()
	f1 := fault.Fault{Ref: paper.Ref("M1", "t7"), Kind: fault.KindOutput, Output: "c'"}
	f2 := fault.Fault{Ref: paper.Ref("M2", "t'4"), Kind: fault.KindOutput, Output: "a"}
	h := multifault.Hypothesis{Faults: []fault.Fault{f1, f2}}
	iut, err := h.Apply(spec)
	if err != nil {
		return DoubleFaultDemoResult{}, err
	}
	suite, _ := testgen.VerificationSuite(spec)
	oracle := &core.SystemOracle{Sys: iut}
	loc, err := multifault.Diagnose(spec, suite, oracle, multifault.Options{})
	if err != nil {
		return DoubleFaultDemoResult{}, err
	}
	res := DoubleFaultDemoResult{
		Injected: h.Describe(spec),
		Verdict:  loc.Verdict,
		Tests:    oracle.Tests,
	}
	if loc.Localized != nil {
		res.Localized = loc.Localized.Describe(spec)
	}
	return res, nil
}

// AsyncDemoResult is the outcome of the nondeterministic demonstration
// (experiment E9).
type AsyncDemoResult struct {
	SpecOutcomes int // possible outcomes of the racing script under the spec
	Detected     bool
	Verdict      core.Verdict
	Localized    string
	Probes       int
}

// RunAsyncDemo exercises the unsynchronized-ports extension on the paper's
// fault: a racing script plus a port-local script detect the fault, and
// single-port probes localize it.
func RunAsyncDemo() (AsyncDemoResult, error) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		return AsyncDemoResult{}, err
	}
	racing := async.Script{Inputs: [][]cfsm.Symbol{{"c"}, {"d'"}, {"c'", "v", "v"}}}
	set, _, err := async.Outcomes(spec, racing)
	if err != nil {
		return AsyncDemoResult{}, err
	}
	scripts := []async.Script{racing}
	oracle := &async.RandomOracle{Sys: iut, Rng: rand.New(rand.NewSource(1))}
	loc, err := async.Diagnose(spec, scripts, oracle)
	if err != nil {
		return AsyncDemoResult{}, err
	}
	res := AsyncDemoResult{
		SpecOutcomes: len(set),
		Detected:     loc.Analysis.Detected,
		Verdict:      loc.Verdict,
		Probes:       len(loc.Probes),
	}
	if loc.Localized != nil {
		res.Localized = loc.Localized.Describe(spec)
	}
	return res, nil
}
