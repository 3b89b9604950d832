package core

// property_test.go checks the diagnosis guarantees on randomly generated
// systems: for arbitrary (seeded) valid CFSM systems and arbitrary in-model
// faults, the algorithm never convicts an innocent transition and never
// declares in-model observations inconsistent.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

// TestPropertyRandomSystems: for a family of random systems and sampled
// single-transition mutants, the verdict is sound.
func TestPropertyRandomSystems(t *testing.T) {
	if testing.Short() {
		t.Skip("random-system soundness sweep is slow")
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		cfg := randgen.Config{
			N: 2 + int(seed%2), States: 3, ExtInputs: 2,
			Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed,
		}
		spec := randgen.MustGenerate(cfg)
		suite, _ := testgen.Tour(spec, 0)
		faults := fault.Enumerate(spec)
		rng := rand.New(rand.NewSource(seed * 977))

		for k := 0; k < 12 && len(faults) > 0; k++ {
			f := faults[rng.Intn(len(faults))]
			mutant := mustApply(t, spec, f)
			oracle := &SystemOracle{Sys: mutant}
			loc, err := Diagnose(spec, suite, oracle)
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, f.Describe(spec), err)
			}
			switch loc.Verdict {
			case VerdictNoFault:
				// Tour did not detect this mutant — allowed.
			case VerdictLocalized:
				if loc.Fault.Ref != f.Ref &&
					!diagEquivalent(t, spec, *loc.Fault, mutant) {
					t.Errorf("seed %d: %s localized as non-equivalent %s",
						seed, f.Describe(spec), loc.Fault.Describe(spec))
				}
			case VerdictAmbiguous:
				found := false
				for _, r := range loc.Remaining {
					if r.Ref == f.Ref || diagEquivalent(t, spec, r, mutant) {
						found = true
						break
					}
				}
				if !found {
					t.Errorf("seed %d: %s ambiguous without the truth (remaining %v)",
						seed, f.Describe(spec), loc.Remaining)
				}
			default:
				t.Errorf("seed %d: %s yielded verdict %v",
					seed, f.Describe(spec), loc.Verdict)
			}
		}
	}
}

func diagEquivalent(t *testing.T, spec *cfsm.System, diagnosed fault.Fault, mutant *cfsm.System) bool {
	t.Helper()
	sys, err := diagnosed.Apply(spec)
	if err != nil {
		return false
	}
	return refsearch.SystemsEquivalent(sys, mutant)
}

// TestPropertyCandidatesContainTruth: whenever a mutant is detected, the
// true faulty transition appears in the initial tentative candidate set of
// its machine — the invariant the conflict-set construction rests on (the
// faulty transition executes, in sync with the specification, before the
// first symptom).
func TestPropertyCandidatesContainTruth(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		spec := randgen.MustGenerate(cfg)
		suite, _ := testgen.Tour(spec, 0)
		rng := rand.New(rand.NewSource(seed * 31))
		faults := fault.Enumerate(spec)
		for k := 0; k < 10 && len(faults) > 0; k++ {
			f := faults[rng.Intn(len(faults))]
			mutant := mustApply(t, spec, f)
			observed, err := mutant.RunSuite(suite)
			if err != nil {
				t.Fatalf("RunSuite: %v", err)
			}
			a, err := Analyze(spec, suite, observed)
			if err != nil {
				t.Fatalf("Analyze: %v", err)
			}
			if !a.HasSymptoms() {
				continue
			}
			found := false
			for _, r := range a.ITC[f.Ref.Machine] {
				if r == f.Ref {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("seed %d: %s detected but missing from ITC^%d = %v",
					seed, f.Describe(spec), f.Ref.Machine+1,
					a.ITC[f.Ref.Machine])
			}
		}
	}
}

// TestPropertySimulatorDeterminism: the simulator is a function — repeated
// runs of the same test case on the same system agree, for arbitrary seeds.
func TestPropertySimulatorDeterminism(t *testing.T) {
	prop := func(seed int64, caseSeed int64) bool {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		spec, err := randgen.Generate(cfg)
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(caseSeed))
		inputs := spec.AllInputs()
		tc := cfsm.TestCase{Inputs: []cfsm.Input{cfsm.Reset()}}
		for i := 0; i < 10; i++ {
			tc.Inputs = append(tc.Inputs, inputs[rng.Intn(len(inputs))])
		}
		a, errA := spec.Run(tc)
		b, errB := spec.Run(tc)
		return errA == nil && errB == nil && cfsm.ObsEqual(a, b)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyHypothesisSelfConsistency: for any mutant, re-simulating the
// suite on the mutant explains its own observations — the fixed point the
// hypothesis checker relies on.
func TestPropertyHypothesisSelfConsistency(t *testing.T) {
	prop := func(seed int64, pick uint8) bool {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		spec, err := randgen.Generate(cfg)
		if err != nil {
			return false
		}
		suite, _ := testgen.Tour(spec, 0)
		faults := fault.Enumerate(spec)
		if len(faults) == 0 {
			return true
		}
		f := faults[int(pick)%len(faults)]
		mutant := mustApply(t, spec, f)
		observed, err := mutant.RunSuite(suite)
		if err != nil {
			return false
		}
		a, err := Analyze(spec, suite, observed)
		if err != nil {
			return false
		}
		return a.explains(f)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// mustApply injects the fault into the specification.
func mustApply(t *testing.T, spec *cfsm.System, f fault.Fault) *cfsm.System {
	t.Helper()
	mutant, err := f.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	return mutant
}
