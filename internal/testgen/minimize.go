package testgen

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
)

// MinimizeSuite returns a subset of the suite with the same single-
// transition fault-detection power, computed by greedy set cover over the
// detection matrix (which test case detects which mutant). Test cases that
// detect no mutant the rest does not are dropped; ties are broken toward
// earlier, then shorter, test cases, so hand-written regression cases tend
// to survive generated ones.
//
// The result detects exactly the mutants the input suite detects — no more,
// no less — so minimizing a fault-model-complete verification suite keeps
// it complete.
func MinimizeSuite(spec *cfsm.System, suite []cfsm.TestCase) ([]cfsm.TestCase, error) {
	e := engine(spec)
	cs := compiled.NewSuite(e.Program(), suite)
	if err := cs.Err(); err != nil {
		return nil, err
	}

	// detects[i] lists the faults (indices into fault.Enumerate) test case i
	// detects.
	detects := make([][]int, len(suite))
	detectable := make(map[int]bool)
	for fi, f := range fault.Enumerate(spec) {
		for i := range suite {
			if e.Detects(cs, i, f) {
				detects[i] = append(detects[i], fi)
				detectable[fi] = true
			}
		}
	}

	covered := make(map[int]bool, len(detectable))
	var picked []int
	for len(covered) < len(detectable) {
		best, bestGain := -1, 0
		for i := range suite {
			gain := 0
			for _, mi := range detects[i] {
				if !covered[mi] {
					gain++
				}
			}
			better := gain > bestGain ||
				(gain == bestGain && gain > 0 &&
					len(suite[i].Inputs) < len(suite[best].Inputs))
			if better {
				best, bestGain = i, gain
			}
		}
		if best < 0 || bestGain == 0 {
			break // cannot happen: every detectable mutant has a detector
		}
		picked = append(picked, best)
		for _, mi := range detects[best] {
			covered[mi] = true
		}
	}

	// Preserve original suite order.
	inPicked := make(map[int]bool, len(picked))
	for _, i := range picked {
		inPicked[i] = true
	}
	var out []cfsm.TestCase
	for i, tc := range suite {
		if inPicked[i] {
			out = append(out, tc)
		}
	}
	return out, nil
}
