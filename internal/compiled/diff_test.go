// Differential tests pinning the compiled substrate to the interpreted
// semantics: overlay legality must match fault.Validate, runner observations
// must match the string-keyed simulator on every mutant, and the equivalence
// predicate must match the interpreted product search. Whole diagnoses are
// compared with core's interpreted reference engine in internal/core
// (TestDiagnosisMatchesInterpreted and its neighbours).
package compiled_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

type fixture struct {
	name  string
	sys   *cfsm.System
	suite []cfsm.TestCase
}

// fixtures returns the differential corpus: the paper's Figure 1 with its
// Table 1 suite, the three protocol systems with their suites, and seeded
// random systems with transition-tour suites.
func fixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	out = append(out, fixture{"figure1", fig, paper.TestSuite()})
	for _, p := range []struct {
		name  string
		build func() (*cfsm.System, error)
		suite func() []cfsm.TestCase
	}{
		{"abp", protocols.ABP, protocols.ABPSuite},
		{"gbn", protocols.GoBackN, protocols.GoBackNSuite},
		{"relay", protocols.Relay, protocols.RelaySuite},
	} {
		sys, err := p.build()
		if err != nil {
			t.Fatalf("%s: %v", p.name, err)
		}
		out = append(out, fixture{p.name, sys, p.suite()})
	}
	for _, seed := range []int64{1, 7, 42} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("randgen seed %d: %v", seed, err)
		}
		suite, _ := testgen.Tour(sys, 0)
		out = append(out, fixture{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	return out
}

// allFaults is the legal single-transition fault space including the
// addressing extension.
func allFaults(sys *cfsm.System) []fault.Fault {
	return append(fault.Enumerate(sys), fault.EnumerateAddress(sys)...)
}

// TestOverlayLegalityMatchesValidate checks OverlayFor's accept/reject
// verdict against fault.Validate over an exhaustive candidate space: for
// every transition, every symbol of the system (plus foreign and reserved
// ones) as an output fault, every declared and one undeclared state as a
// transfer fault, their cross product as combined faults, every destination from
// -2 through N as an addressing fault, and malformed kinds and refs.
func TestOverlayLegalityMatchesValidate(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			p, err := compiled.Compile(fx.sys)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			checked := 0
			check := func(f fault.Fault) {
				t.Helper()
				_, ok := p.OverlayFor(f)
				want := f.Validate(fx.sys) == nil
				if ok != want {
					t.Errorf("OverlayFor(%+v) ok=%v, Validate legal=%v", f, ok, want)
				}
				checked++
			}
			symSet := map[cfsm.Symbol]bool{
				"zz-no-such-symbol": true,
				cfsm.Null:           true,
				cfsm.Epsilon:        true,
				"":                  true,
			}
			for i := 0; i < fx.sys.N(); i++ {
				for _, tr := range fx.sys.Machine(i).Transitions() {
					symSet[tr.Input] = true
					symSet[tr.Output] = true
				}
			}
			for _, ref := range fx.sys.Refs() {
				states := append(fx.sys.Machine(ref.Machine).States(), "zz-no-such-state", "")
				for sym := range symSet {
					check(fault.Fault{Ref: ref, Kind: fault.KindOutput, Output: sym})
				}
				for _, s := range states {
					check(fault.Fault{Ref: ref, Kind: fault.KindTransfer, To: s})
				}
				for sym := range symSet {
					for _, s := range states {
						check(fault.Fault{Ref: ref, Kind: fault.KindBoth, Output: sym, To: s})
					}
				}
				for d := -2; d <= fx.sys.N(); d++ {
					check(fault.Fault{Ref: ref, Kind: fault.KindAddress, Dest: d})
				}
				check(fault.Fault{Ref: ref, Kind: fault.Kind(99)})
			}
			check(fault.Fault{Ref: cfsm.Ref{Machine: 0, Name: "zz-no-such-transition"}, Kind: fault.KindOutput, Output: "x"})
			for _, f := range allFaults(fx.sys) {
				check(f)
			}
			t.Logf("%d fault candidates checked", checked)
		})
	}
}

// randomSuite builds a deterministic stress suite: long input sequences with
// embedded resets, every port, every symbol of the system and an unknown one.
func randomSuite(sys *cfsm.System, seed int64) []cfsm.TestCase {
	rng := rand.New(rand.NewSource(seed))
	syms := []cfsm.Symbol{"zz-unknown"}
	seen := map[cfsm.Symbol]bool{}
	for i := 0; i < sys.N(); i++ {
		for _, tr := range sys.Machine(i).Transitions() {
			for _, s := range []cfsm.Symbol{tr.Input, tr.Output} {
				if !seen[s] {
					seen[s] = true
					syms = append(syms, s)
				}
			}
		}
	}
	suite := make([]cfsm.TestCase, 12)
	for i := range suite {
		inputs := make([]cfsm.Input, 40)
		for j := range inputs {
			if rng.Intn(12) == 0 {
				inputs[j] = cfsm.Input{Port: rng.Intn(sys.N()), Sym: cfsm.ResetSymbol}
				continue
			}
			inputs[j] = cfsm.Input{Port: rng.Intn(sys.N()), Sym: syms[rng.Intn(len(syms))]}
		}
		suite[i] = cfsm.TestCase{Name: fmt.Sprintf("stress-%d", i), Inputs: inputs}
	}
	return suite
}

// TestRunnerMatchesInterpreted executes the specification and every mutant
// (including addressing mutants) of every fixture through both simulators —
// on the fixture's own suite and on a seeded stress suite with resets and
// unknown symbols — requiring identical observation sequences.
func TestRunnerMatchesInterpreted(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			p, err := compiled.Compile(fx.sys)
			if err != nil {
				t.Fatalf("Compile: %v", err)
			}
			stress := randomSuite(fx.sys, 0xC0FFEE)
			runBoth := func(label string, sys *cfsm.System, ov compiled.Overlay) {
				t.Helper()
				for _, suite := range [][]cfsm.TestCase{fx.suite, stress} {
					want, wantErr := sys.RunSuite(suite)
					got, gotErr := p.RunnerFor(ov).RunSuite(suite)
					if (wantErr == nil) != (gotErr == nil) ||
						(wantErr != nil && wantErr.Error() != gotErr.Error()) {
						t.Fatalf("%s: error mismatch: interpreted %v, compiled %v", label, wantErr, gotErr)
					}
					if wantErr == nil && !reflect.DeepEqual(want, got) {
						t.Fatalf("%s: observations diverge:\ninterpreted %v\ncompiled    %v", label, want, got)
					}
				}
			}
			runBoth("spec", fx.sys, compiled.None())
			for _, f := range allFaults(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply %s: %v", f.Describe(fx.sys), err)
				}
				ov, ok := p.OverlayFor(f)
				if !ok {
					t.Fatalf("no overlay for legal fault %s", f.Describe(fx.sys))
				}
				runBoth(f.Describe(fx.sys), mut, ov)
			}
		})
	}
}

// TestRunnerErrorParity pins the two non-observation paths: an out-of-range
// port produces the interpreted error text, and an unknown symbol at a legal
// port observes Epsilon rather than failing.
func TestRunnerErrorParity(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	p, err := compiled.Compile(fig)
	if err != nil {
		t.Fatal(err)
	}
	bad := cfsm.TestCase{Name: "bad-port", Inputs: []cfsm.Input{{Port: fig.N() + 3, Sym: "a"}}}
	_, wantErr := fig.Run(bad)
	_, gotErr := p.NewRunner().Run(bad)
	if wantErr == nil || gotErr == nil || wantErr.Error() != gotErr.Error() {
		t.Fatalf("port error mismatch: interpreted %v, compiled %v", wantErr, gotErr)
	}
}

// TestEquivalencePredicatesMatchInterpreted pins the compiled equivalence
// predicates to the interpreted product-machine checks used by the sweep's
// outcome classification.
func TestEquivalencePredicatesMatchInterpreted(t *testing.T) {
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			eng, err := compiled.NewEngine(fx.sys)
			if err != nil {
				t.Fatalf("NewEngine: %v", err)
			}
			faults := allFaults(fx.sys)
			for _, f := range faults {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
				want := refsearch.SystemsEquivalent(fx.sys, mut)
				if got := eng.Equivalent(nil, &f); got != want {
					t.Errorf("Equivalent(spec, %s) = %v, interpreted %v", f.Describe(fx.sys), got, want)
				}
			}
			// Pairwise equivalence on a deterministic sample of fault pairs.
			rng := rand.New(rand.NewSource(7))
			for k := 0; k < 40 && len(faults) > 1; k++ {
				a := faults[rng.Intn(len(faults))]
				b := faults[rng.Intn(len(faults))]
				sa, err := a.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				sb, err := b.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				want := refsearch.SystemsEquivalent(sa, sb)
				if got := eng.Equivalent(&a, &b); got != want {
					t.Errorf("Equivalent(%s, %s) = %v, interpreted %v",
						a.Describe(fx.sys), b.Describe(fx.sys), got, want)
				}
			}
		})
	}
}
