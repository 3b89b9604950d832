package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// exactMatcher is an observation matcher that compares sequences exactly; it
// switches the pipeline into matcher mode without widening anything.
type exactMatcher struct{}

func (exactMatcher) Equal(p, r []cfsm.Observation) bool { return cfsm.ObsEqual(p, r) }
func (exactMatcher) Mismatch(p, r []cfsm.Observation) string {
	return fmt.Sprintf("predicted %v, recorded %v", p, r)
}

// engineKind names the engine an analysis holds. Only the compiled engine
// a diagnosis built itself is released, and releasing it clears the
// analysis' engine, so "released" names that one.
func engineKind(e engine) string {
	switch e.(type) {
	case nil:
		return "released"
	case compiledEngine:
		return "compiled"
	case systemEngine:
		return "interpreted"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// TestEngineSelection pins which engine runs a diagnosis: the compiled one
// under every production option combination — no engine option, a nil
// engine, structured tracing, an observation matcher — through Analyze,
// Localize and Diagnose (which releases it); the interpreted one only when
// the test-only Reference option names it.
func TestEngineSelection(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatal(err)
	}
	observed, err := iut.RunSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		opts []Option
		want string
		// diagnosed is the engine Diagnose leaves in the analysis: it
		// releases a compiled engine it built, and the caller's engine
		// (Reference) stays.
		diagnosed string
	}{
		{"default", nil, "compiled", "released"},
		{"trace", []Option{WithTrace(trace.New())}, "compiled", "released"},
		{"matcher", []Option{WithObsMatcher(exactMatcher{})}, "compiled", "released"},
		{"nil engine", []Option{WithEngine(nil)}, "compiled", "released"},
		{"reference", []Option{Reference}, "interpreted", "interpreted"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a, err := Analyze(spec, suite, observed, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := engineKind(a.eng); got != tc.want {
				t.Fatalf("Analyze ran on the %s engine, want %s", got, tc.want)
			}
			eng := a.eng
			loc, err := Localize(a, &SystemOracle{Sys: iut}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if loc.Analysis.eng != eng {
				t.Error("Localize did not reuse the engine Analyze built")
			}
			if loc.Verdict != VerdictLocalized || loc.Fault.Ref != paper.Ref("M3", `t"4`) {
				t.Errorf("Localize: %v %v", loc.Verdict, loc.Fault)
			}
			loc, err = Diagnose(spec, suite, &SystemOracle{Sys: iut}, tc.opts...)
			if err != nil {
				t.Fatal(err)
			}
			if got := engineKind(loc.Analysis.eng); got != tc.diagnosed {
				t.Errorf("Diagnose left the %s engine, want %s", got, tc.diagnosed)
			}
		})
	}

	t.Run("hand-built analysis", func(t *testing.T) {
		a := &Analysis{Spec: spec, Suite: suite, Observed: observed}
		if _, err := Localize(a, &SystemOracle{Sys: iut}); err != nil {
			t.Fatal(err)
		}
		if got := engineKind(a.eng); got != "compiled" {
			t.Errorf("Localize resolved the %s engine, want compiled", got)
		}
	})

	t.Run("nil specification", func(t *testing.T) {
		if _, err := Analyze(nil, nil, nil); err == nil {
			t.Error("Analyze accepted a nil specification")
		}
	})

	t.Run("foreign engine", func(t *testing.T) {
		other := randgen.MustGenerate(randgen.DefaultConfig())
		foreign, err := compiled.NewEngine(other)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Analyze(spec, suite, observed, WithEngine(foreign))
		if err != nil {
			t.Fatal(err)
		}
		if c, ok := a.eng.(compiledEngine); !ok || c.e == foreign {
			t.Errorf("Analyze ran on %T (foreign engine used: %v)", a.eng, ok && c.e == foreign)
		}
	})
}

// wideSpecs are specifications whose configuration spaces are far past
// the dense visited array: 16^8 = 2^32 configurations with its transition
// tour (testgen.Tour on the compiled tables builds it in about 2 s; the
// interpreted tour search needs about 20 s), and 16^17 = 2^68 — past
// uint64 — with a short seeded random-walk suite. Each
// lists mutants (indices into fault.Enumerate) whose analysis leaves
// several diagnoses, so Step 6 runs its searches on the wide space.
func wideSpecs(t *testing.T) []struct {
	name    string
	spec    *cfsm.System
	suite   []cfsm.TestCase
	mutants []int
} {
	t.Helper()
	w32 := randgen.MustGenerate(randgen.Config{N: 8, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	tour, _ := testgen.Tour(w32, 0)
	w68 := randgen.MustGenerate(randgen.Config{N: 17, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	inputs := w68.AllInputs()
	rng := rand.New(rand.NewSource(1))
	var walks []cfsm.TestCase
	for c := 0; c < 4; c++ {
		tc := cfsm.TestCase{Name: fmt.Sprintf("walk%d", c), Inputs: []cfsm.Input{cfsm.Reset()}}
		for k := 0; k < 40; k++ {
			tc.Inputs = append(tc.Inputs, inputs[rng.Intn(len(inputs))])
		}
		walks = append(walks, tc)
	}
	return []struct {
		name    string
		spec    *cfsm.System
		suite   []cfsm.TestCase
		mutants []int
	}{
		{"2^32", w32, tour, []int{97, 291}},
		{"2^68", w68, walks, []int{287, 294}},
	}
}

// TestWideSpecRunsCompiled diagnoses mutants of the wide specifications and
// requires the compiled engine to run them — with the same verdict, fault,
// remaining hypotheses, additional tests and oracle cost as the interpreted
// reference.
func TestWideSpecRunsCompiled(t *testing.T) {
	type outcome struct {
		Verdict    Verdict
		Fault      *fault.Fault
		Remaining  []fault.Fault
		Diagnoses  int
		Additional []AdditionalTest
		Tests      int
		Inputs     int
	}
	for _, w := range wideSpecs(t) {
		t.Run(w.name, func(t *testing.T) {
			prog, err := compiled.Compile(w.spec)
			if err != nil {
				t.Fatal(err)
			}
			if n, ok := prog.Configs(); ok && n <= 1<<31 {
				t.Fatalf("%d configurations; the test needs more than 2^31", n)
			}
			faults := fault.Enumerate(w.spec)
			for _, i := range w.mutants {
				iut, err := faults[i].Apply(w.spec)
				if err != nil {
					t.Fatal(err)
				}
				diagnose := func(opts ...Option) (outcome, string) {
					oracle := &SystemOracle{Sys: iut}
					loc, err := Diagnose(w.spec, w.suite, oracle, opts...)
					if err != nil {
						t.Fatal(err)
					}
					return outcome{loc.Verdict, loc.Fault, loc.Remaining, len(loc.Analysis.Diagnoses),
						loc.AdditionalTests, oracle.Tests, oracle.Inputs}, engineKind(loc.Analysis.eng)
				}
				got, kind := diagnose()
				if kind != "released" {
					t.Fatalf("mutant %d ran on the %s engine", i, kind)
				}
				if got.Diagnoses < 2 || len(got.Additional) == 0 {
					t.Errorf("mutant %d: %d diagnoses, %d additional tests; want Step 6 to run",
						i, got.Diagnoses, len(got.Additional))
				}
				if want, _ := diagnose(Reference); !reflect.DeepEqual(got, want) {
					t.Errorf("mutant %d (%s):\n  compiled  %+v\n  reference %+v",
						i, faults[i].Describe(w.spec), got, want)
				}
			}
		})
	}
}
