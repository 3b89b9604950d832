// Parity tests: Tour, VerificationSuite, MinimizeSuite and Detection run on
// the compiled engine. The ref* bodies below are their interpreted forms —
// one cloned system per mutant, cfsm.System.Apply and the reference
// searches — and the tests require identical results, test case names and
// ordering included.
package testgen

import (
	"fmt"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
)

// refMutant pairs a fault with the system clone it produces.
type refMutant struct {
	fault fault.Fault
	sys   *cfsm.System
}

// refMutants applies every enumerated fault (and, with address set, every
// addressing fault), skipping those that do not apply.
func refMutants(spec *cfsm.System, address bool) []refMutant {
	faults := fault.Enumerate(spec)
	if address {
		faults = append(faults, fault.EnumerateAddress(spec)...)
	}
	var out []refMutant
	for _, f := range faults {
		if sys, err := f.Apply(spec); err == nil {
			out = append(out, refMutant{f, sys})
		}
	}
	return out
}

func refTour(sys *cfsm.System, maxLen int) (suite []cfsm.TestCase, uncovered []cfsm.Ref) {
	covered := make(cfsm.RefSet)
	total := sys.NumTransitions()
	current := cfsm.TestCase{Name: fmt.Sprintf("tour%d", len(suite)+1), Inputs: []cfsm.Input{cfsm.Reset()}}
	cfg := sys.InitialConfig()
	closeCase := func() {
		if len(current.Inputs) > 1 {
			suite = append(suite, current)
		}
		current = cfsm.TestCase{Name: fmt.Sprintf("tour%d", len(suite)+1), Inputs: []cfsm.Input{cfsm.Reset()}}
		cfg = sys.InitialConfig()
	}
	for len(covered) < total {
		seq, end, ok := refsearch.NextUncovered(sys, cfg, covered)
		if !ok {
			if len(current.Inputs) > 1 {
				closeCase()
				continue
			}
			break
		}
		if maxLen > 0 && len(current.Inputs)+len(seq) > maxLen && len(current.Inputs) > 1 {
			closeCase()
			continue
		}
		c := cfg
		for _, in := range seq {
			next, _, trace, err := sys.Apply(c, in)
			if err != nil {
				break
			}
			for _, e := range trace {
				covered[e.Ref()] = true
			}
			c = next
		}
		current.Inputs = append(current.Inputs, seq...)
		cfg = end
	}
	if len(current.Inputs) > 1 {
		suite = append(suite, current)
	}
	for _, r := range sys.Refs() {
		if !covered[r] {
			uncovered = append(uncovered, r)
		}
	}
	return suite, uncovered
}

func refVerificationSuite(sys *cfsm.System) (suite []cfsm.TestCase, undetectable []fault.Fault) {
	var expected [][]cfsm.Observation
	covers := func(mutant *cfsm.System) bool {
		for i, tc := range suite {
			obs, err := mutant.Run(tc)
			if err != nil {
				continue
			}
			if !cfsm.ObsEqual(obs, expected[i]) {
				return true
			}
		}
		return false
	}
	for _, m := range refMutants(sys, false) {
		if covers(m.sys) {
			continue
		}
		seq, ok, _ := refsearch.Distinguish(
			refsearch.Variant{Sys: sys, Cfg: sys.InitialConfig()},
			refsearch.Variant{Sys: m.sys, Cfg: m.sys.InitialConfig()},
			sys.AllInputs(), nil, false,
		)
		if !ok {
			undetectable = append(undetectable, m.fault)
			continue
		}
		tc := cfsm.TestCase{
			Name:   fmt.Sprintf("verify%d-%s", len(suite)+1, m.fault.Ref.Name),
			Inputs: append([]cfsm.Input{cfsm.Reset()}, seq...),
		}
		obs, err := sys.Run(tc)
		if err != nil {
			continue
		}
		suite = append(suite, tc)
		expected = append(expected, obs)
	}
	return suite, undetectable
}

func refMinimizeSuite(spec *cfsm.System, suite []cfsm.TestCase) ([]cfsm.TestCase, error) {
	expected := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := spec.Run(tc)
		if err != nil {
			return nil, err
		}
		expected[i] = obs
	}
	mutants := refMutants(spec, false)
	detects := make([][]int, len(suite))
	detectable := make(map[int]bool)
	for mi, m := range mutants {
		for i, tc := range suite {
			obs, err := m.sys.Run(tc)
			if err != nil {
				return nil, err
			}
			if !cfsm.ObsEqual(obs, expected[i]) {
				detects[i] = append(detects[i], mi)
				detectable[mi] = true
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
			if gain > bestGain || (gain == bestGain && gain > 0 && len(suite[i].Inputs) < len(suite[best].Inputs)) {
				best, bestGain = i, gain
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		picked = append(picked, best)
		for _, mi := range detects[best] {
			covered[mi] = true
		}
	}
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

func refDetection(spec *cfsm.System, suite []cfsm.TestCase, includeAddress, checkEquivalence bool) (DetectionReport, error) {
	report := DetectionReport{Spec: spec, Suite: suite, Detected: make(map[string]int)}
	expected := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := spec.Run(tc)
		if err != nil {
			return report, err
		}
		expected[i] = obs
	}
	mutants := refMutants(spec, includeAddress)
	report.Faults = len(mutants)
	for _, m := range mutants {
		caseIdx := -1
		for i, tc := range suite {
			obs, err := m.sys.Run(tc)
			if err != nil {
				return report, err
			}
			if !cfsm.ObsEqual(obs, expected[i]) {
				caseIdx = i
				break
			}
		}
		if caseIdx >= 0 {
			report.Detected[m.fault.Describe(spec)] = caseIdx
			continue
		}
		if checkEquivalence && refsearch.SystemsEquivalent(spec, m.sys) {
			report.Undetectable = append(report.Undetectable, m.fault)
			continue
		}
		report.Missed = append(report.Missed, m.fault)
	}
	return report, nil
}

// paritySpecs is the parity corpus: Figure 1, the alternating-bit and
// go-back-N protocols, randgen's default configuration at seeds 1–40, and
// the 4×4 configuration of the benchmark at seeds 2 and 13.
func paritySpecs(t *testing.T) []struct {
	name string
	sys  *cfsm.System
} {
	t.Helper()
	out := []struct {
		name string
		sys  *cfsm.System
	}{
		{"figure1", paper.MustFigure1()},
		{"abp", protocols.MustABP()},
		{"gbn", protocols.MustGoBackN()},
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		out = append(out, struct {
			name string
			sys  *cfsm.System
		}{fmt.Sprintf("rand-%d", seed), randgen.MustGenerate(cfg)})
	}
	for _, seed := range []int64{2, 13} {
		cfg := randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed}
		out = append(out, struct {
			name string
			sys  *cfsm.System
		}{fmt.Sprintf("rand4x4-%d", seed), randgen.MustGenerate(cfg)})
	}
	return out
}

// TestSuiteGenerationParity pins the compiled suite generators to the
// interpreted bodies: Tour unbounded and at a small maxLen with its
// uncovered list, VerificationSuite with its undetectable list,
// MinimizeSuite of both suites, and Detection of the tour with and without
// addressing faults.
func TestSuiteGenerationParity(t *testing.T) {
	same := func(t *testing.T, what string, got, want any) {
		t.Helper()
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n  compiled    %v\n  interpreted %v", what, got, want)
		}
	}
	for _, fx := range paritySpecs(t) {
		t.Run(fx.name, func(t *testing.T) {
			sys := fx.sys
			var tour []cfsm.TestCase
			for _, maxLen := range []int{0, 8} {
				got, gotUnc := Tour(sys, maxLen)
				want, wantUnc := refTour(sys, maxLen)
				same(t, fmt.Sprintf("Tour(%d)", maxLen), [2]any{got, gotUnc}, [2]any{want, wantUnc})
				if maxLen == 0 {
					tour = got
				}
			}

			verify, undetectable := VerificationSuite(sys)
			wantVerify, wantUndetectable := refVerificationSuite(sys)
			same(t, "VerificationSuite", [2]any{verify, undetectable}, [2]any{wantVerify, wantUndetectable})

			for name, suite := range map[string][]cfsm.TestCase{"tour": tour, "verification": verify} {
				got, gotErr := MinimizeSuite(sys, suite)
				want, wantErr := refMinimizeSuite(sys, suite)
				same(t, "MinimizeSuite("+name+")", [2]any{got, gotErr}, [2]any{want, wantErr})
			}

			for _, address := range []bool{false, true} {
				got, gotErr := Detection(sys, tour, address, true)
				want, wantErr := refDetection(sys, tour, address, true)
				same(t, fmt.Sprintf("Detection(address %v)", address), [2]any{got, gotErr}, [2]any{want, wantErr})
			}
		})
	}
}

// TestSuiteGenerationErrorParity: a suite the specification cannot run
// fails MinimizeSuite and Detection with the interpreted error.
func TestSuiteGenerationErrorParity(t *testing.T) {
	spec := paper.MustFigure1()
	suite := append(paper.TestSuite(), cfsm.TestCase{Name: "bad", Inputs: []cfsm.Input{cfsm.Reset(), {Port: 7, Sym: "a"}}})
	_, gotErr := MinimizeSuite(spec, suite)
	_, wantErr := refMinimizeSuite(spec, suite)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
		t.Errorf("MinimizeSuite: compiled %v, interpreted %v", gotErr, wantErr)
	}
	got, gotErr := Detection(spec, suite, true, true)
	want, wantErr := refDetection(spec, suite, true, true)
	if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() || !reflect.DeepEqual(got, want) {
		t.Errorf("Detection: compiled %+v %v, interpreted %+v %v", got, gotErr, want, wantErr)
	}
}
