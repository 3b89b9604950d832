package randgen

import (
	"testing"
	"testing/quick"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

func TestGenerateValid(t *testing.T) {
	for seed := int64(0); seed < 25; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		sys, err := Generate(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if sys.N() != cfg.N {
			t.Fatalf("seed %d: N = %d", seed, sys.N())
		}
		// NewSystem already validates the model rules; check the extras the
		// generator promises: every state reachable within its machine via
		// the spanning path, and at least one internal transition per pair.
		for m := 0; m < sys.N(); m++ {
			if got := len(sys.Machine(m).States()); got != cfg.States {
				t.Fatalf("seed %d machine %d: %d states", seed, m, got)
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 7
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	aj, err := a.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	bj, err := b.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	if string(aj) != string(bj) {
		t.Fatal("same seed produced different systems")
	}
}

func TestGenerateInvalidConfig(t *testing.T) {
	bad := []Config{
		{N: 0, States: 1, ExtInputs: 1, Messages: 1},
		{N: 1, States: 0, ExtInputs: 1, Messages: 1},
		{N: 1, States: 1, ExtInputs: 0, Messages: 1},
		{N: 1, States: 1, ExtInputs: 1, Messages: 0},
	}
	for _, cfg := range bad {
		if _, err := Generate(cfg); err == nil {
			t.Errorf("config %+v should fail", cfg)
		}
	}
}

// TestGeneratedSystemsSimulate is a property test: for arbitrary seeds, the
// generated system validates, simulates every generated input without error
// and the alphabets stay disjoint (NewSystem enforces it, so a construction
// bug would surface as a Generate error).
func TestGeneratedSystemsSimulate(t *testing.T) {
	prop := func(seed int64) bool {
		cfg := DefaultConfig()
		cfg.Seed = seed
		sys, err := Generate(cfg)
		if err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		cfgState := sys.InitialConfig()
		for _, in := range sys.AllInputs() {
			next, obs, _, err := sys.Apply(cfgState, in)
			if err != nil {
				t.Logf("seed %d: apply %v: %v", seed, in, err)
				return false
			}
			if obs.Sym == "" {
				return false
			}
			cfgState = next
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedTourCoverage: the transition tour covers the reachable part
// of every generated system; uncovered transitions, if any, must be globally
// unreachable (verified by a reachability sweep).
func TestGeneratedTourCoverage(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cfg := DefaultConfig()
		cfg.Seed = seed
		sys := MustGenerate(cfg)
		_, uncovered := testgen.Tour(sys, 0)
		if len(uncovered) == 0 {
			continue
		}
		// Every uncovered transition must be unreachable: no reachable
		// global configuration has the machine in the transition's source
		// state... unless the transition is only triggerable via a queue
		// symbol that no peer sends; verify via executed traces from all
		// reachable configurations.
		reach := refsearch.ReachableConfigs(sys)
		executable := make(map[cfsm.Ref]bool)
		for _, c := range reach {
			for _, in := range sys.AllInputs() {
				_, _, trace, err := sys.Apply(c, in)
				if err != nil {
					t.Fatalf("Apply: %v", err)
				}
				for _, e := range trace {
					executable[e.Ref()] = true
				}
			}
		}
		for _, r := range uncovered {
			if executable[r] {
				t.Errorf("seed %d: tour missed executable transition %v", seed, r)
			}
		}
	}
}
