package compiled_test

import (
	"fmt"
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// symbolsOnly relates observation sequences that agree symbol by symbol,
// whatever the ports: a relation weaker than equality, so the verifiers take
// their predicted-sequence path.
type symbolsOnly struct{}

func (symbolsOnly) Equal(pred, rec []cfsm.Observation) bool {
	for i := range pred {
		if pred[i].Sym != rec[i].Sym {
			return false
		}
	}
	return true
}

// reuseSubject is one program with its suite and the observations of a few
// of its mutants.
type reuseSubject struct {
	name     string
	prog     *compiled.Program
	suite    []cfsm.TestCase
	faults   []fault.Fault
	observed [][][]cfsm.Observation
}

func newReuseSubject(t *testing.T, name string, sys *cfsm.System, suite []cfsm.TestCase) reuseSubject {
	t.Helper()
	prog, err := compiled.Compile(sys)
	if err != nil {
		t.Fatal(err)
	}
	s := reuseSubject{name: name, prog: prog, suite: suite}
	all := fault.Enumerate(sys)
	for i := 0; i < len(all); i += max(1, len(all)/8) {
		iut, err := all[i].Apply(sys)
		if err != nil {
			t.Fatal(err)
		}
		obs, err := iut.RunSuite(suite)
		if err != nil {
			t.Fatal(err)
		}
		s.faults = append(s.faults, all[i])
		s.observed = append(s.observed, obs)
	}
	return s
}

// reuseResults is everything one pass of exercise answers.
type reuseResults struct {
	Analyses     []compiled.Analysis
	Errors       []string
	Runs         [][]cfsm.Observation
	Explains     []bool
	StatOuts     [][]compiled.StateOutput
	Distinctions [][]cfsm.Input
	Transfers    [][]cfsm.Input
}

// exercise runs every engine entry point that reads or writes scratch:
// Analyze and the verifiers with and without a relation, the pair and
// transfer searches, and — with other's suite, observations and faults,
// which the engine may have cached by identity while bound to other's
// program — Analyze and Variant once more. It probes s's faults last first
// and ends on other's in order, so the Ref memo a rebinding leaves behind
// names the first fault the next program's exercise probes.
func exercise(t *testing.T, e *compiled.Engine, s, other reuseSubject) reuseResults {
	t.Helper()
	var out reuseResults
	analyze := func(suite []cfsm.TestCase, obs [][]cfsm.Observation, rel compiled.Relation) {
		a, err := e.Analyze(suite, obs, rel)
		out.Analyses = append(out.Analyses, a)
		out.Errors = append(out.Errors, fmt.Sprint(err))
	}
	probe := func(f fault.Fault) {
		v, err := e.Variant(&f)
		if err == nil {
			var obs []cfsm.Observation
			obs, err = v.Run(s.suite[0])
			out.Runs = append(out.Runs, obs)
		}
		out.Errors = append(out.Errors, fmt.Sprint(err))
	}
	for i := len(s.faults) - 1; i >= 0; i-- {
		probe(s.faults[i])
	}
	sys := s.prog.System()
	for i, obs := range s.observed {
		for _, rel := range []compiled.Relation{nil, symbolsOnly{}} {
			analyze(s.suite, obs, rel)
			for _, f := range s.faults {
				out.Explains = append(out.Explains, e.Explains(s.suite, obs, f, rel))
			}
			r := s.faults[i].Ref
			out.StatOuts = append(out.StatOuts, e.StatOut(s.suite, obs, r, sys.AlternativeOutputs(r), rel))
		}
	}
	spec, err := e.Variant(nil)
	if err != nil {
		t.Fatal(err)
	}
	_, start, err := spec.RunInputs(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s.faults {
		v, err := e.Variant(&s.faults[i])
		if err != nil {
			t.Fatal(err)
		}
		for _, projected := range []bool{false, true} {
			seq, _, _ := e.Distinguish(spec, start, v, start, cfsm.NewRefSet(s.faults[i].Ref), projected)
			out.Distinctions = append(out.Distinctions, seq)
		}
	}
	for m := 0; m < sys.N(); m++ {
		for _, st := range sys.Machine(m).States() {
			seq, _ := e.TransferToState(m, st, nil)
			out.Transfers = append(out.Transfers, seq)
		}
	}
	analyze(other.suite, other.observed[0], nil)
	for _, f := range other.faults {
		probe(f)
	}
	return out
}

// TestEngineReuseMatchesFresh: an engine that worked on program A, was
// released and is rebound to program B answers exactly what a fresh engine
// over B answers, for every pair of subjects in both orders.
func TestEngineReuseMatchesFresh(t *testing.T) {
	rand := func(seed int64) *cfsm.System {
		return randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed})
	}
	tour := func(sys *cfsm.System) []cfsm.TestCase {
		suite, _ := testgen.Tour(sys, 0)
		return suite
	}
	subjects := []reuseSubject{
		newReuseSubject(t, "figure1", paper.MustFigure1(), paper.TestSuite()),
		newReuseSubject(t, "abp", protocols.MustABP(), protocols.ABPSuite()),
	}
	for _, seed := range []int64{2, 13} {
		sys := rand(seed)
		subjects = append(subjects, newReuseSubject(t, fmt.Sprintf("rand-%d", seed), sys, tour(sys)))
	}
	for _, a := range subjects {
		for _, b := range subjects {
			if a.name == b.name {
				continue
			}
			t.Run(a.name+"-then-"+b.name, func(t *testing.T) {
				e := compiled.FreshEngine(a.prog)
				exercise(t, e, a, b)
				e.Rebind(b.prog)
				got := exercise(t, e, b, a)
				want := exercise(t, compiled.FreshEngine(b.prog), b, a)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("rebound engine differs from a fresh one")
				}
			})
		}
	}
}
