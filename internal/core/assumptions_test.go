package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
)

func hasWarning(ws []Warning, code string) bool {
	for _, w := range ws {
		if w.Code == code {
			return true
		}
	}
	return false
}

func TestCheckAssumptionsFigure1(t *testing.T) {
	ws := CheckAssumptions(paper.MustFigure1())
	// The Figure 1 system is clean: every transition is reachable, every
	// machine's states are distinguishable, every class has 2 outputs, and
	// the configuration graph is strongly connected.
	for _, w := range ws {
		t.Errorf("unexpected warning: %s", w)
	}
}

func TestCheckAssumptionsFlagsEquivalentStates(t *testing.T) {
	a, err := cfsm.NewMachine("A", "s0", []cfsm.State{"s0", "s1", "s2"}, []cfsm.Transition{
		{Name: "t1", From: "s0", Input: "x", Output: "go", To: "s1", Dest: cfsm.DestEnv},
		{Name: "t2", From: "s1", Input: "x", Output: "halt", To: "s1", Dest: cfsm.DestEnv},
		{Name: "t3", From: "s2", Input: "x", Output: "halt", To: "s2", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(a)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	ws := CheckAssumptions(sys)
	if !hasWarning(ws, WarnEquivalentStates) {
		t.Errorf("missing equivalent-states warning: %v", ws)
	}
	// s2 is unreachable, so t3 is unreachable; and nothing escapes s1:
	// not strongly connected either.
	if !hasWarning(ws, WarnUnreachableTransition) {
		t.Errorf("missing unreachable-transition warning: %v", ws)
	}
	if !hasWarning(ws, WarnNotStronglyConnected) {
		t.Errorf("missing connectivity warning: %v", ws)
	}
	if !hasWarning(ws, WarnSingleOutput) {
		// OEO(A) = {go, halt} has two symbols... but no internal channels;
		// this branch documents that the single-output warning is about
		// classes with one symbol only.
		t.Logf("warnings: %v", ws)
	}
}

func TestCheckAssumptionsSingleOutputChannel(t *testing.T) {
	// A system whose only internal channel carries a single symbol.
	a, err := cfsm.NewMachine("A", "s0", []cfsm.State{"s0"}, []cfsm.Transition{
		{Name: "t1", From: "s0", Input: "p", Output: "m", To: "s0", Dest: 1},
		{Name: "t2", From: "s0", Input: "x", Output: "y", To: "s0", Dest: cfsm.DestEnv},
		{Name: "t3", From: "s0", Input: "z", Output: "w", To: "s0", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	b, err := cfsm.NewMachine("B", "q0", []cfsm.State{"q0"}, []cfsm.Transition{
		{Name: "u1", From: "q0", Input: "m", Output: "r", To: "q0", Dest: cfsm.DestEnv},
		{Name: "u2", From: "q0", Input: "n", Output: "s", To: "q0", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(a, b)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	ws := CheckAssumptions(sys)
	if !hasWarning(ws, WarnSingleOutput) {
		t.Errorf("missing single-output warning: %v", ws)
	}
	found := false
	for _, w := range ws {
		if strings.Contains(w.String(), "OIO to B") {
			found = true
		}
	}
	if !found {
		t.Errorf("single-output warning should name the channel: %v", ws)
	}
}

func TestWarningString(t *testing.T) {
	w := Warning{Code: "c", Machine: "M1", Detail: "d"}
	if got := w.String(); got != "[c] M1: d" {
		t.Errorf("String() = %q", got)
	}
	sysW := Warning{Code: "c", Detail: "d"}
	if got := sysW.String(); got != "[c] d" {
		t.Errorf("String() = %q", got)
	}
}

// refCheckAssumptions is CheckAssumptions on the interpreted searches: the
// executable transitions over refsearch.ReachableConfigs, and strong
// connectivity by a breadth-first search from every reachable configuration.
func refCheckAssumptions(spec *cfsm.System) []Warning {
	var out []Warning
	for i := 0; i < spec.N(); i++ {
		m := spec.Machine(i)
		proj, err := projectMachine(m)
		if err != nil {
			continue
		}
		if !proj.IsMinimal() {
			out = append(out, Warning{
				Code:    WarnEquivalentStates,
				Machine: m.Name(),
				Detail:  "has states that are equivalent in isolation; transfer faults between them may be undiagnosable",
			})
		}
	}
	out = append(out, refUnreachable(spec)...)
	for i := 0; i < spec.N(); i++ {
		if len(spec.OEO(i)) == 1 {
			out = append(out, Warning{
				Code:    WarnSingleOutput,
				Machine: spec.Machine(i).Name(),
				Detail:  "OEO has a single symbol; external output faults are impossible by construction",
			})
		}
		for j := 0; j < spec.N(); j++ {
			if i == j {
				continue
			}
			if oio := spec.OIO(i, j); len(oio) == 1 {
				out = append(out, Warning{
					Code:    WarnSingleOutput,
					Machine: spec.Machine(i).Name(),
					Detail: fmt.Sprintf("OIO to %s has a single symbol; internal output faults on that channel are impossible",
						spec.Machine(j).Name()),
				})
			}
		}
	}
	if !refStronglyConnected(spec) {
		out = append(out, Warning{
			Code:   WarnNotStronglyConnected,
			Detail: "the reachable configuration graph is not strongly connected; transfer sequences rely on the reset",
		})
	}
	return out
}

// refUnreachable is the unreachable-transition warnings over the
// configurations refsearch.ReachableConfigs discovers. The probe stops once
// every transition has fired: the set cannot grow further.
func refUnreachable(spec *cfsm.System) []Warning {
	executable := make(cfsm.RefSet)
	for _, cfg := range refsearch.ReachableConfigs(spec) {
		if len(executable) == spec.NumTransitions() {
			break
		}
		for _, in := range spec.AllInputs() {
			_, _, trace, err := spec.Apply(cfg, in)
			if err != nil {
				continue
			}
			for _, e := range trace {
				executable[e.Ref()] = true
			}
		}
	}
	var out []Warning
	for _, r := range spec.Refs() {
		if !executable[r] {
			out = append(out, Warning{
				Code:    WarnUnreachableTransition,
				Machine: spec.Machine(r.Machine).Name(),
				Detail:  fmt.Sprintf("transition %s can never execute; its faults are undetectable", r.Name),
			})
		}
	}
	return out
}

// refStronglyConnected reports whether every reachable configuration can
// reach every other without using the reset.
func refStronglyConnected(spec *cfsm.System) bool {
	configs := refsearch.ReachableConfigs(spec)
	inputs := spec.AllInputs()
	for _, start := range configs {
		seen := map[string]bool{start.Key(): true}
		frontier := []cfsm.Config{start}
		for len(frontier) > 0 {
			cfg := frontier[0]
			frontier = frontier[1:]
			for _, in := range inputs {
				next, _, _, err := spec.Apply(cfg, in)
				if err != nil {
					continue
				}
				if !seen[next.Key()] {
					seen[next.Key()] = true
					frontier = append(frontier, next)
				}
			}
		}
		if len(seen) != len(configs) {
			return false
		}
	}
	return true
}

// TestCheckAssumptionsParity pins CheckAssumptions on the compiled
// reachability pass to the interpreted reference on Figure 1, the
// alternating-bit and go-back-N protocols, randgen's default configuration
// at seeds 1–40 and the benchmark's 4×4 configuration at seeds 2 and 13.
func TestCheckAssumptionsParity(t *testing.T) {
	specs := map[string]*cfsm.System{
		"figure1": paper.MustFigure1(),
		"abp":     protocols.MustABP(),
		"gbn":     protocols.MustGoBackN(),
	}
	for seed := int64(1); seed <= 40; seed++ {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		specs[fmt.Sprintf("rand-%d", seed)] = randgen.MustGenerate(cfg)
	}
	for _, seed := range []int64{2, 13} {
		specs[fmt.Sprintf("rand4x4-%d", seed)] = randgen.MustGenerate(randgen.Config{
			N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed})
	}
	for name, spec := range specs {
		if got, want := CheckAssumptions(spec), refCheckAssumptions(spec); !reflect.DeepEqual(got, want) {
			t.Errorf("%s:\n  compiled    %v\n  interpreted %v", name, got, want)
		}
	}
}

// TestCheckAssumptionsWideSpec: on the 2^32-configuration specification
// the reachability pass stops at the exploration limit, so CheckAssumptions
// returns in well under a second instead of walking the configuration graph
// once per configuration; its unreachable-transition warnings are those of
// the configurations the reference discovers, and the truncated pass makes
// no strong-connectivity claim.
func TestCheckAssumptionsWideSpec(t *testing.T) {
	spec := randgen.MustGenerate(randgen.Config{N: 8, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	start := time.Now()
	ws := CheckAssumptions(spec)
	if d := time.Since(start); d > 20*time.Second {
		t.Errorf("CheckAssumptions took %v", d)
	}
	var unreachable []Warning
	for _, w := range ws {
		switch w.Code {
		case WarnUnreachableTransition:
			unreachable = append(unreachable, w)
		case WarnNotStronglyConnected:
			t.Errorf("truncated pass warned: %s", w)
		}
	}
	if want := refUnreachable(spec); !reflect.DeepEqual(unreachable, want) {
		t.Errorf("unreachable-transition warnings:\n  compiled    %v\n  interpreted %v", unreachable, want)
	}
}

// BenchmarkCheckAssumptions analyses the benchmark's 4×4 specification at
// seed 13 (256 reachable configurations, 56 inputs).
func BenchmarkCheckAssumptions(b *testing.B) {
	spec := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 13})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		CheckAssumptions(spec)
	}
}
