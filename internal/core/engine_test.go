package core

import (
	"fmt"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/trace"
)

// exactMatcher is an observation matcher that compares sequences exactly; it
// switches the pipeline into matcher mode without widening anything.
type exactMatcher struct{}

func (exactMatcher) Equal(p, r []cfsm.Observation) bool { return cfsm.ObsEqual(p, r) }
func (exactMatcher) Mismatch(p, r []cfsm.Observation) string {
	return fmt.Sprintf("predicted %v, recorded %v", p, r)
}

func engineKind(e engine) string {
	switch e.(type) {
	case compiledEngine:
		return "compiled"
	case systemEngine:
		return "interpreted"
	default:
		return fmt.Sprintf("%T", e)
	}
}

// TestEngineSelection pins which engine runs a diagnosis: the compiled one
// for a packable specification under every option combination — no engine
// option, structured tracing, an observation matcher — through Analyze,
// Localize and Diagnose; the interpreted one only for a specification whose
// configuration space does not pack, or when WithEngine(nil) names it as
// the reference.
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
	}{
		{"default", nil, "compiled"},
		{"trace", []Option{WithTrace(trace.New())}, "compiled"},
		{"matcher", []Option{WithObsMatcher(exactMatcher{})}, "compiled"},
		{"reference", []Option{WithEngine(nil)}, "interpreted"},
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
			if got := engineKind(loc.Analysis.eng); got != tc.want {
				t.Errorf("Diagnose ran on the %s engine, want %s", got, tc.want)
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

// TestUnpackableSpecRunsInterpreted builds a specification whose global
// configuration space (2^32 configurations) exceeds the packed bound and
// checks that the diagnosis falls back to the interpreted engine.
func TestUnpackableSpecRunsInterpreted(t *testing.T) {
	spec := randgen.MustGenerate(randgen.Config{N: 32, States: 2, ExtInputs: 1, Messages: 1, Density: 1, Seed: 1})
	prog, err := compiled.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	if prog.Packable() {
		t.Fatalf("%d configurations packed; the test needs an unpackable specification", prog.Configs())
	}
	f := fault.Enumerate(spec)[0]
	iut, err := f.Apply(spec)
	if err != nil {
		t.Fatal(err)
	}
	var inputs []cfsm.Input
	for port := 0; port < spec.N(); port++ {
		for _, sym := range spec.Inputs(port) {
			inputs = append(inputs, cfsm.Input{Port: port, Sym: sym})
		}
	}
	suite := []cfsm.TestCase{{Name: "all", Inputs: append([]cfsm.Input{cfsm.Reset()}, inputs...)}}
	loc, err := Diagnose(spec, suite, &SystemOracle{Sys: iut})
	if err != nil {
		t.Fatal(err)
	}
	if got := engineKind(loc.Analysis.eng); got != "interpreted" {
		t.Fatalf("unpackable specification ran on the %s engine", got)
	}
	if loc.Verdict == VerdictInconsistent {
		t.Errorf("verdict %v for in-model fault %s", loc.Verdict, f.Describe(spec))
	}
}
