package testgen

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/refsearch"
)

func TestTransferToState(t *testing.T) {
	sys := paper.MustFigure1()

	t.Run("paper transfer to start of t7", func(t *testing.T) {
		// Step 6 of the paper: "A possible transfer sequence which will take
		// the machine M1 to the starting state s2 of t7 is R, c^1."
		res, ok := refsearch.TransferToState(sys, paper.M1, "s2", nil)
		if !ok {
			t.Fatal("no transfer sequence found")
		}
		if got := cfsm.FormatInputs(res.Inputs); got != "c^1" {
			t.Fatalf("transfer sequence = %q, want c^1", got)
		}
		if res.Config[paper.M1] != "s2" {
			t.Fatalf("config = %v", res.Config)
		}
	})

	t.Run("paper transfer to start of t\"4", func(t *testing.T) {
		// "A possible transfer sequence which will take the machine M3 to
		// the starting state s1 of t\"4 is R, c'^3."
		res, ok := refsearch.TransferToState(sys, paper.M3, "s1", nil)
		if !ok {
			t.Fatal("no transfer sequence found")
		}
		if got := cfsm.FormatInputs(res.Inputs); got != "c'^3" {
			t.Fatalf("transfer sequence = %q, want c'^3", got)
		}
	})

	t.Run("already satisfied", func(t *testing.T) {
		res, ok := refsearch.TransferToState(sys, paper.M1, "s0", nil)
		if !ok || len(res.Inputs) != 0 {
			t.Fatalf("res = %v ok %v, want empty sequence", res, ok)
		}
	})

	t.Run("avoid forces detour", func(t *testing.T) {
		// Avoiding t2 (s0 -c-> s2) forces the longer route through s1.
		avoid := cfsm.NewRefSet(cfsm.Ref{Machine: paper.M1, Name: "t2"})
		res, ok := refsearch.TransferToState(sys, paper.M1, "s2", avoid)
		if !ok {
			t.Fatal("no transfer sequence found")
		}
		if len(res.Inputs) < 2 {
			t.Fatalf("transfer sequence %v should detour around t2", res.Inputs)
		}
		// Verify the sequence truly avoids t2 and lands in s2.
		cfg := sys.InitialConfig()
		for _, in := range res.Inputs {
			next, _, trace, err := sys.Apply(cfg, in)
			if err != nil {
				t.Fatalf("Apply: %v", err)
			}
			for _, e := range trace {
				if avoid[e.Ref()] {
					t.Fatalf("sequence executed avoided transition: %v", trace)
				}
			}
			cfg = next
		}
		if cfg[paper.M1] != "s2" {
			t.Fatalf("final config %v", cfg)
		}
	})

	t.Run("unreachable target", func(t *testing.T) {
		// Avoid every transition: only the initial configuration is reachable.
		avoid := cfsm.NewRefSet(sys.Refs()...)
		if _, ok := refsearch.TransferToState(sys, paper.M1, "s2", avoid); ok {
			t.Fatal("target should be unreachable when everything is avoided")
		}
	})
}

func TestReachableConfigs(t *testing.T) {
	sys := paper.MustFigure1()
	configs := refsearch.ReachableConfigs(sys)
	if len(configs) == 0 || len(configs) > 27 {
		t.Fatalf("ReachableConfigs returned %d configurations", len(configs))
	}
	if _, ok := configs[sys.InitialConfig().Key()]; !ok {
		t.Fatal("initial configuration missing")
	}
}

func TestDistinguishStates(t *testing.T) {
	spec := paper.MustFigure1()

	t.Run("distinguish M3 s0 from s1", func(t *testing.T) {
		// The paper distinguishes M3's s0 and s1 (after the suspect t"4)
		// with input v^3: in s1 it yields b^3, in s0 it is undefined (ε^3).
		a := refsearch.Variant{Sys: spec, Cfg: cfsm.Config{"s0", "s0", "s1"}}
		b := refsearch.Variant{Sys: spec, Cfg: cfsm.Config{"s0", "s0", "s0"}}
		seq, ok, _ := refsearch.Distinguish(a, b, spec.AllInputs(), nil, false)
		if !ok {
			t.Fatal("s1 and s0 of M3 must be distinguishable")
		}
		// Verify the sequence separates the variants.
		oa := runFrom(t, spec, a.Cfg, seq)
		ob := runFrom(t, spec, b.Cfg, seq)
		if cfsm.FormatObs(oa) == cfsm.FormatObs(ob) {
			t.Fatalf("sequence %v does not distinguish", cfsm.FormatInputs(seq))
		}
	})

	t.Run("identical variants are equivalent", func(t *testing.T) {
		v := refsearch.Variant{Sys: spec, Cfg: spec.InitialConfig()}
		if _, ok, _ := refsearch.Distinguish(v, v, spec.AllInputs(), nil, false); ok {
			t.Fatal("identical variants must not be distinguishable")
		}
		if !refsearch.SystemsEquivalent(spec, spec) {
			t.Fatal("refsearch.SystemsEquivalent(spec, spec) = false")
		}
	})

	t.Run("mutated system distinguished from spec", func(t *testing.T) {
		iut, err := paper.FaultyImplementation()
		if err != nil {
			t.Fatalf("FaultyImplementation: %v", err)
		}
		if refsearch.SystemsEquivalent(spec, iut) {
			t.Fatal("the paper's faulty IUT must be distinguishable from the spec")
		}
	})

	t.Run("mismatched machine count", func(t *testing.T) {
		a := refsearch.Variant{Sys: spec, Cfg: spec.InitialConfig()}
		small := twoMachineSystem(t)
		b := refsearch.Variant{Sys: small, Cfg: small.InitialConfig()}
		if _, ok, _ := refsearch.Distinguish(a, b, spec.AllInputs(), nil, false); ok {
			t.Fatal("mismatched systems must not be comparable")
		}
	})
}

func runFrom(t *testing.T, sys *cfsm.System, cfg cfsm.Config, ins []cfsm.Input) []cfsm.Observation {
	t.Helper()
	var obs []cfsm.Observation
	for _, in := range ins {
		next, o, _, err := sys.Apply(cfg, in)
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		obs = append(obs, o)
		cfg = next
	}
	return obs
}

func twoMachineSystem(t *testing.T) *cfsm.System {
	t.Helper()
	a, err := cfsm.NewMachine("A", "s0", []cfsm.State{"s0"}, []cfsm.Transition{
		{Name: "a1", From: "s0", Input: "x", Output: "y", To: "s0", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	b, err := cfsm.NewMachine("B", "q0", []cfsm.State{"q0"}, []cfsm.Transition{
		{Name: "b1", From: "q0", Input: "m", Output: "z", To: "q0", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(a, b)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestTourCoversEverything(t *testing.T) {
	sys := paper.MustFigure1()
	suite, uncovered := Tour(sys, 0)
	if len(uncovered) != 0 {
		t.Fatalf("uncovered transitions: %v", uncovered)
	}
	if len(suite) == 0 {
		t.Fatal("empty suite")
	}
	// Replay the suite and verify every transition executes.
	covered := make(cfsm.RefSet)
	for _, tc := range suite {
		if !tc.Inputs[0].IsReset() {
			t.Fatalf("test case %s does not start with reset", tc.Name)
		}
		_, steps, err := sys.RunTrace(tc)
		if err != nil {
			t.Fatalf("RunTrace: %v", err)
		}
		for _, ex := range steps {
			for _, e := range ex {
				covered[e.Ref()] = true
			}
		}
	}
	if len(covered) != sys.NumTransitions() {
		t.Fatalf("suite covers %d of %d transitions", len(covered), sys.NumTransitions())
	}
}

func TestTourMaxLen(t *testing.T) {
	sys := paper.MustFigure1()
	suite, uncovered := Tour(sys, 6)
	if len(uncovered) != 0 {
		t.Fatalf("uncovered transitions: %v", uncovered)
	}
	for _, tc := range suite {
		if len(tc.Inputs) > 6 {
			t.Fatalf("test case %s has %d inputs, budget 6", tc.Name, len(tc.Inputs))
		}
	}
	if len(suite) < 2 {
		t.Fatalf("expected the budget to split the tour, got %d case(s)", len(suite))
	}
}

func TestTourUnreachable(t *testing.T) {
	// A machine with an island state: t2 is unreachable.
	a, err := cfsm.NewMachine("A", "s0", []cfsm.State{"s0", "s1"}, []cfsm.Transition{
		{Name: "t1", From: "s0", Input: "x", Output: "y", To: "s0", Dest: cfsm.DestEnv},
		{Name: "t2", From: "s1", Input: "x", Output: "y", To: "s1", Dest: cfsm.DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	sys, err := cfsm.NewSystem(a)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	suite, uncovered := Tour(sys, 0)
	if len(uncovered) != 1 || uncovered[0].Name != "t2" {
		t.Fatalf("uncovered = %v, want [t2]", uncovered)
	}
	if len(suite) != 1 {
		t.Fatalf("suite = %v", suite)
	}
}
