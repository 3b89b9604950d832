package testgen

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
)

// DetectionReport records how well an initial test suite supports diagnosis
// of a specification: which single-transition faults it detects (diagnosis
// can only start once a symptom appears), which detectable faults it misses,
// and which faults are undetectable in principle (their mutants are
// observationally equivalent to the specification). Tools use it to judge a
// regression suite before relying on the diagnostic algorithm.
type DetectionReport struct {
	Spec  *cfsm.System
	Suite []cfsm.TestCase
	// Detected maps each detected fault to the index of the first test case
	// that reveals it.
	Detected map[string]int
	// Missed lists detectable faults the suite does not reveal.
	Missed []fault.Fault
	// Undetectable lists faults whose mutants are equivalent to the spec.
	Undetectable []fault.Fault
	// Faults is the enumerated fault space, for totals.
	Faults int
}

// DetectionRate returns the fraction of detectable faults the suite detects
// (1.0 when there are none).
func (r DetectionReport) DetectionRate() float64 {
	detectable := r.Faults - len(r.Undetectable)
	if detectable == 0 {
		return 1.0
	}
	return float64(len(r.Detected)) / float64(detectable)
}

// Detection evaluates the suite against the complete single-transition fault
// model. includeAddress adds the addressing-fault extension to the space.
// checkEquivalence controls whether missed faults are classified as missed
// versus undetectable (the equivalence check costs a pairwise search per
// missed fault).
func Detection(spec *cfsm.System, suite []cfsm.TestCase, includeAddress, checkEquivalence bool) (DetectionReport, error) {
	report := DetectionReport{
		Spec:     spec,
		Suite:    suite,
		Detected: make(map[string]int),
	}
	e := engine(spec)
	cs := compiled.NewSuite(e.Program(), suite)
	if err := cs.Err(); err != nil {
		return report, err
	}

	faults := fault.Enumerate(spec)
	if includeAddress {
		faults = append(faults, fault.EnumerateAddress(spec)...)
	}
	for _, f := range faults {
		if _, err := e.Variant(&f); err != nil {
			continue // realizes no mutant
		}
		report.Faults++
		caseIdx := -1
		for i := range suite {
			if e.Detects(cs, i, f) {
				caseIdx = i
				break
			}
		}
		if caseIdx >= 0 {
			report.Detected[f.Describe(spec)] = caseIdx
			continue
		}
		if checkEquivalence && e.Equivalent(nil, &f) {
			report.Undetectable = append(report.Undetectable, f)
			continue
		}
		report.Missed = append(report.Missed, f)
	}
	return report, nil
}
