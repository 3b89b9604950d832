package cfsm

import (
	"slices"
	"strings"
	"testing"
)

// twoMachine builds a minimal valid 2-machine system:
//
//	A (port 1): a1: s0 -x/y-> s1 (external), a2: s1 -i/m→B-> s0 (internal)
//	B (port 2): b1: q0 -m/z-> q1 (external), b2: q1 -w/n→A-> q0 (internal)
//	A also defines a3: s0 -n/y-> s0 so B's internal output n is safe in A.
func twoMachine(t *testing.T) *System {
	t.Helper()
	a, err := NewMachine("A", "s0", []State{"s0", "s1"}, []Transition{
		{Name: "a1", From: "s0", Input: "x", Output: "y", To: "s1", Dest: DestEnv},
		{Name: "a2", From: "s1", Input: "i", Output: "m", To: "s0", Dest: 1},
		{Name: "a3", From: "s0", Input: "n", Output: "y", To: "s0", Dest: DestEnv},
	})
	if err != nil {
		t.Fatalf("NewMachine A: %v", err)
	}
	b, err := NewMachine("B", "q0", []State{"q0", "q1"}, []Transition{
		{Name: "b1", From: "q0", Input: "m", Output: "z", To: "q1", Dest: DestEnv},
		{Name: "b2", From: "q1", Input: "w", Output: "n", To: "q0", Dest: 0},
	})
	if err != nil {
		t.Fatalf("NewMachine B: %v", err)
	}
	sys, err := NewSystem(a, b)
	if err != nil {
		t.Fatalf("NewSystem: %v", err)
	}
	return sys
}

func TestNewMachineValidation(t *testing.T) {
	tests := []struct {
		name    string
		initial State
		states  []State
		trans   []Transition
		wantErr string
	}{
		{
			name: "reserved null symbol", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s0", Input: "-", Output: "y", To: "s0", Dest: DestEnv}},
			wantErr: "reserved symbol",
		},
		{
			name: "reserved epsilon symbol", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s0", Input: "a", Output: Epsilon, To: "s0", Dest: DestEnv}},
			wantErr: "reserved symbol",
		},
		{
			name: "nondeterminism", initial: "s0", states: []State{"s0"},
			trans: []Transition{
				{Name: "t1", From: "s0", Input: "a", Output: "y", To: "s0", Dest: DestEnv},
				{Name: "t2", From: "s0", Input: "a", Output: "z", To: "s0", Dest: DestEnv},
			},
			wantErr: "nondeterminism",
		},
		{
			name: "undeclared initial", initial: "zz", states: []State{"s0"},
			wantErr: "not declared",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewMachine("M", tc.initial, tc.states, tc.trans)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("got %v, want error containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestNewSystemValidation(t *testing.T) {
	mustMachine := func(name string, initial State, states []State, trans []Transition) *Machine {
		m, err := NewMachine(name, initial, states, trans)
		if err != nil {
			t.Fatalf("NewMachine %s: %v", name, err)
		}
		return m
	}

	t.Run("valid", func(t *testing.T) {
		twoMachine(t)
	})

	t.Run("reset input forbidden", func(t *testing.T) {
		m := mustMachine("A", "s0", []State{"s0"}, []Transition{
			{Name: "t", From: "s0", Input: ResetSymbol, Output: "y", To: "s0", Dest: DestEnv},
		})
		if _, err := NewSystem(m); err == nil || !strings.Contains(err.Error(), "reset") {
			t.Fatalf("got %v, want reset-input error", err)
		}
	})

	t.Run("self destination forbidden", func(t *testing.T) {
		m := mustMachine("A", "s0", []State{"s0"}, []Transition{
			{Name: "t", From: "s0", Input: "a", Output: "y", To: "s0", Dest: 0},
		})
		if _, err := NewSystem(m); err == nil || !strings.Contains(err.Error(), "own machine") {
			t.Fatalf("got %v, want self-destination error", err)
		}
	})

	t.Run("unknown destination index", func(t *testing.T) {
		m := mustMachine("A", "s0", []State{"s0"}, []Transition{
			{Name: "t", From: "s0", Input: "a", Output: "y", To: "s0", Dest: 7},
		})
		if _, err := NewSystem(m); err == nil || !strings.Contains(err.Error(), "unknown machine") {
			t.Fatalf("got %v, want unknown-destination error", err)
		}
	})

	t.Run("IEO and IIO must be disjoint", func(t *testing.T) {
		a := mustMachine("A", "s0", []State{"s0", "s1"}, []Transition{
			{Name: "t1", From: "s0", Input: "a", Output: "y", To: "s1", Dest: DestEnv},
			{Name: "t2", From: "s1", Input: "a", Output: "m", To: "s0", Dest: 1},
		})
		b := mustMachine("B", "q0", []State{"q0"}, []Transition{
			{Name: "u1", From: "q0", Input: "m", Output: "z", To: "q0", Dest: DestEnv},
		})
		if _, err := NewSystem(a, b); err == nil || !strings.Contains(err.Error(), "IEO ∩ IIO") {
			t.Fatalf("got %v, want partition error", err)
		}
	})

	t.Run("internal chains forbidden", func(t *testing.T) {
		a := mustMachine("A", "s0", []State{"s0"}, []Transition{
			{Name: "t1", From: "s0", Input: "a", Output: "m", To: "s0", Dest: 1},
		})
		b := mustMachine("B", "q0", []State{"q0"}, []Transition{
			{Name: "u1", From: "q0", Input: "m", Output: "n", To: "q0", Dest: 0},
		})
		if _, err := NewSystem(a, b); err == nil || !strings.Contains(err.Error(), "internal chain") {
			t.Fatalf("got %v, want internal-chain error", err)
		}
	})

	t.Run("duplicate machine names", func(t *testing.T) {
		a := mustMachine("A", "s0", []State{"s0"}, nil)
		a2 := mustMachine("A", "s0", []State{"s0"}, nil)
		if _, err := NewSystem(a, a2); err == nil || !strings.Contains(err.Error(), "duplicate machine") {
			t.Fatalf("got %v, want duplicate-name error", err)
		}
	})

	t.Run("empty system", func(t *testing.T) {
		if _, err := NewSystem(); err == nil {
			t.Fatal("want error for empty system")
		}
	})
}

func TestSystemAccessors(t *testing.T) {
	sys := twoMachine(t)
	if sys.N() != 2 {
		t.Fatalf("N() = %d, want 2", sys.N())
	}
	if sys.NumTransitions() != 5 {
		t.Fatalf("NumTransitions() = %d, want 5", sys.NumTransitions())
	}
	if got := sys.Machine(0).Name(); got != "A" {
		t.Fatalf("Machine(0).Name() = %q", got)
	}
	refs := sys.Refs()
	if len(refs) != 5 {
		t.Fatalf("Refs() = %v, want 5 entries", refs)
	}
	tr, ok := sys.Transition(Ref{Machine: 1, Name: "b2"})
	if !ok || tr.Dest != 0 {
		t.Fatalf("Transition(B.b2) = %v %v", tr, ok)
	}
	if _, ok := sys.Transition(Ref{Machine: 9, Name: "zz"}); ok {
		t.Fatal("Transition with bad machine index should fail")
	}
	if got := sys.RefString(Ref{Machine: 1, Name: "b2"}); got != "B.b2" {
		t.Fatalf("RefString = %q", got)
	}
}

func TestAlphabets(t *testing.T) {
	sys := twoMachine(t)
	if got := sys.IEO(0); len(got) != 2 || got[0] != "n" || got[1] != "x" {
		t.Errorf("IEO(A) = %v, want [n x]", got)
	}
	if got := sys.IIO(0); len(got) != 1 || got[0] != "i" {
		t.Errorf("IIO(A) = %v, want [i]", got)
	}
	if got := sys.OEO(0); len(got) != 1 || got[0] != "y" {
		t.Errorf("OEO(A) = %v, want [y]", got)
	}
	if got := sys.OIO(0, 1); len(got) != 1 || got[0] != "m" {
		t.Errorf("OIO(A>B) = %v, want [m]", got)
	}
	if got := sys.OIO(1, 0); len(got) != 1 || got[0] != "n" {
		t.Errorf("OIO(B>A) = %v, want [n]", got)
	}
	if got := sys.Inputs(0); len(got) != 3 {
		t.Errorf("Inputs(A) = %v, want 3 symbols", got)
	}
}

func TestAlternativeOutputs(t *testing.T) {
	sys := twoMachine(t)
	// a2 is internal to B; OIO(A>B) = {m}; removing the expected output m
	// leaves nothing.
	if got := sys.AlternativeOutputs(Ref{Machine: 0, Name: "a2"}); len(got) != 0 {
		t.Errorf("AlternativeOutputs(a2) = %v, want empty", got)
	}
	// a1 is external; OEO(A) = {y}; removing y leaves nothing.
	if got := sys.AlternativeOutputs(Ref{Machine: 0, Name: "a1"}); len(got) != 0 {
		t.Errorf("AlternativeOutputs(a1) = %v, want empty", got)
	}
	if got := sys.AlternativeOutputs(Ref{Machine: 5, Name: "zz"}); got != nil {
		t.Errorf("AlternativeOutputs(bad ref) = %v, want nil", got)
	}
}

func TestApplySemantics(t *testing.T) {
	sys := twoMachine(t)
	cfg := sys.InitialConfig()
	if cfg.Key() != "s0|q0" {
		t.Fatalf("InitialConfig = %v", cfg)
	}

	t.Run("reset", func(t *testing.T) {
		next, obs, ex, err := sys.Apply(Config{"s1", "q1"}, Reset())
		if err != nil || !slices.Equal(next, cfg) || obs.Sym != Null || ex != nil {
			t.Fatalf("reset: %v %v %v %v", next, obs, ex, err)
		}
	})

	t.Run("external transition", func(t *testing.T) {
		next, obs, ex, err := sys.Apply(cfg, Input{Port: 0, Sym: "x"})
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if obs != (Observation{Sym: "y", Port: 0}) {
			t.Fatalf("obs = %v", obs)
		}
		if next.Key() != "s1|q0" {
			t.Fatalf("next = %v", next)
		}
		if len(ex) != 1 || ex[0].Trans.Name != "a1" {
			t.Fatalf("trace = %v", ex)
		}
	})

	t.Run("internal then external pair", func(t *testing.T) {
		next, obs, ex, err := sys.Apply(Config{"s1", "q0"}, Input{Port: 0, Sym: "i"})
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		// a2 sends m to B; B's b1 fires and z is observed at port 2.
		if obs != (Observation{Sym: "z", Port: 1}) {
			t.Fatalf("obs = %v", obs)
		}
		if next.Key() != "s0|q1" {
			t.Fatalf("next = %v", next)
		}
		if len(ex) != 2 || ex[0].Trans.Name != "a2" || ex[1].Trans.Name != "b1" {
			t.Fatalf("trace = %v", ex)
		}
	})

	t.Run("undefined input at port", func(t *testing.T) {
		next, obs, ex, err := sys.Apply(cfg, Input{Port: 0, Sym: "zz"})
		if err != nil || !slices.Equal(next, cfg) || obs.Sym != Epsilon || obs.Port != 0 || ex != nil {
			t.Fatalf("undefined: %v %v %v %v", next, obs, ex, err)
		}
	})

	t.Run("undefined reception at destination", func(t *testing.T) {
		// From (s1, q1): a2 sends m to B, but B in q1 has no transition on m.
		next, obs, ex, err := sys.Apply(Config{"s1", "q1"}, Input{Port: 0, Sym: "i"})
		if err != nil {
			t.Fatalf("Apply: %v", err)
		}
		if obs != (Observation{Sym: Epsilon, Port: 1}) {
			t.Fatalf("obs = %v, want ε at port 2", obs)
		}
		if next.Key() != "s0|q1" {
			t.Fatalf("next = %v: sender must still move", next)
		}
		if len(ex) != 1 || ex[0].Trans.Name != "a2" {
			t.Fatalf("trace = %v", ex)
		}
	})

	t.Run("bad port", func(t *testing.T) {
		if _, _, _, err := sys.Apply(cfg, Input{Port: 9, Sym: "x"}); err == nil {
			t.Fatal("want error for bad port")
		}
	})

	t.Run("bad config length", func(t *testing.T) {
		if _, _, _, err := sys.Apply(Config{"s0"}, Input{Port: 0, Sym: "x"}); err == nil {
			t.Fatal("want error for bad config length")
		}
	})
}

func TestRunAndRunTrace(t *testing.T) {
	sys := twoMachine(t)
	tc := TestCase{Name: "t", Inputs: []Input{
		Reset(),
		{Port: 0, Sym: "x"},
		{Port: 0, Sym: "i"},
		{Port: 1, Sym: "w"},
	}}
	obs, steps, err := sys.RunTrace(tc)
	if err != nil {
		t.Fatalf("RunTrace: %v", err)
	}
	// The last step: b2 sends n to A in s0; A's a3 fires and y is observed
	// at A's port.
	want := []Observation{
		{Sym: Null, Port: 0},
		{Sym: "y", Port: 0},
		{Sym: "z", Port: 1},
		{Sym: "y", Port: 0},
	}
	if !ObsEqual(obs, want) {
		t.Fatalf("obs = %v, want %v", obs, want)
	}
	if len(steps) != 4 || steps[0] != nil || len(steps[3]) != 2 {
		t.Fatalf("steps = %v", steps)
	}

	obs2, err := sys.Run(tc)
	if err != nil || !ObsEqual(obs, obs2) {
		t.Fatalf("Run disagrees with RunTrace: %v %v", obs2, err)
	}

	suiteObs, err := sys.RunSuite([]TestCase{tc, tc})
	if err != nil || len(suiteObs) != 2 || !ObsEqual(suiteObs[0], suiteObs[1]) {
		t.Fatalf("RunSuite: %v %v", suiteObs, err)
	}
}

func TestRewireSystem(t *testing.T) {
	sys := twoMachine(t)

	t.Run("output", func(t *testing.T) {
		mut, err := sys.Rewire(Ref{Machine: 0, Name: "a1"}, "q", "")
		if err != nil {
			t.Fatalf("Rewire: %v", err)
		}
		tr, _ := mut.Transition(Ref{Machine: 0, Name: "a1"})
		if tr.Output != "q" {
			t.Fatalf("output not rewired: %v", tr)
		}
		// Original untouched.
		orig, _ := sys.Transition(Ref{Machine: 0, Name: "a1"})
		if orig.Output != "y" {
			t.Fatal("Rewire mutated the original system")
		}
	})

	t.Run("transfer", func(t *testing.T) {
		mut, err := sys.Rewire(Ref{Machine: 0, Name: "a1"}, "", "s0")
		if err != nil {
			t.Fatalf("Rewire: %v", err)
		}
		tr, _ := mut.Transition(Ref{Machine: 0, Name: "a1"})
		if tr.To != "s0" {
			t.Fatalf("destination not rewired: %v", tr)
		}
	})

	t.Run("unknown ref", func(t *testing.T) {
		if _, err := sys.Rewire(Ref{Machine: 0, Name: "zz"}, "q", ""); err == nil {
			t.Fatal("want error")
		}
	})

	t.Run("unknown state", func(t *testing.T) {
		if _, err := sys.Rewire(Ref{Machine: 0, Name: "a1"}, "", "nope"); err == nil {
			t.Fatal("want error")
		}
	})
}

func TestFormatting(t *testing.T) {
	if got := (Input{Port: 2, Sym: "x"}).String(); got != "x^3" {
		t.Errorf("Input.String() = %q, want x^3", got)
	}
	if got := Reset().String(); got != "R" {
		t.Errorf("Reset().String() = %q, want R", got)
	}
	if got := (Observation{Sym: "c'", Port: 0}).String(); got != "c'^1" {
		t.Errorf("Observation.String() = %q, want c'^1", got)
	}
	if got := (Observation{Sym: Null, Port: 0}).String(); got != "-" {
		t.Errorf("null Observation.String() = %q, want -", got)
	}
	obs := []Observation{{Sym: Null, Port: 0}, {Sym: "a", Port: 2}}
	if got := FormatObs(obs); got != "-, a^3" {
		t.Errorf("FormatObs = %q", got)
	}
	ins := []Input{Reset(), {Port: 0, Sym: "a"}}
	if got := FormatInputs(ins); got != "R, a^1" {
		t.Errorf("FormatInputs = %q", got)
	}
	tc := TestCase{Name: "tc1", Inputs: ins}
	if got := tc.String(); got != "tc1: R, a^1" {
		t.Errorf("TestCase.String() = %q", got)
	}
	anon := TestCase{Inputs: ins}
	if got := anon.String(); got != "R, a^1" {
		t.Errorf("anonymous TestCase.String() = %q", got)
	}
	tr := Transition{Name: "t6", From: "s1", Input: "c", Output: "c'", To: "s2", Dest: 1}
	if got := tr.String(); got != "t6: s1 -c/c'→M2-> s2" {
		t.Errorf("Transition.String() = %q", got)
	}
}

func TestConfigHelpers(t *testing.T) {
	c := Config{"s0", "q1"}
	d := c.Clone()
	d[0] = "s1"
	if c[0] != "s0" {
		t.Fatal("Clone is shallow")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	sys := twoMachine(t)
	data, err := sys.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	back, err := ParseSystem(data)
	if err != nil {
		t.Fatalf("ParseSystem: %v", err)
	}
	if back.N() != sys.N() || back.NumTransitions() != sys.NumTransitions() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.N(), back.NumTransitions(), sys.N(), sys.NumTransitions())
	}
	// Behaviour must be preserved.
	tc := TestCase{Inputs: []Input{Reset(), {Port: 0, Sym: "x"}, {Port: 0, Sym: "i"}}}
	a, err := sys.Run(tc)
	if err != nil {
		t.Fatalf("Run original: %v", err)
	}
	b, err := back.Run(tc)
	if err != nil {
		t.Fatalf("Run round-tripped: %v", err)
	}
	if !ObsEqual(a, b) {
		t.Fatalf("round trip changed behaviour: %v vs %v", a, b)
	}
}

func TestParseSystemErrors(t *testing.T) {
	if _, err := ParseSystem([]byte("{")); err == nil {
		t.Error("want error for malformed JSON")
	}
	bad := `{"machines":[{"name":"A","initial":"s0","states":["s0"],
	  "transitions":[{"name":"t","from":"s0","input":"a","output":"y","to":"s0","dest":"NOPE"}]}]}`
	if _, err := ParseSystem([]byte(bad)); err == nil || !strings.Contains(err.Error(), "unknown machine") {
		t.Errorf("got %v, want unknown-machine error", err)
	}
}

func TestSystemDOT(t *testing.T) {
	dot := twoMachine(t).DOT()
	for _, want := range []string{"cluster_0", "cluster_1", "style=bold", "a1: x/y", "a2: i/m→B"} {
		if !strings.Contains(dot, want) {
			t.Errorf("DOT missing %q", want)
		}
	}
}

func TestRefSet(t *testing.T) {
	r1 := Ref{Machine: 0, Name: "t1"}
	r2 := Ref{Machine: 1, Name: "t2"}
	s := NewRefSet(r1, r2)
	if len(s) != 2 || !s[r1] || !s[r2] {
		t.Fatalf("NewRefSet = %v", s)
	}
	c := s.Without(r1)
	if len(c) != 1 || c[r1] || !c[r2] {
		t.Fatalf("Without = %v", c)
	}
	if len(s) != 2 {
		t.Fatal("Without mutated the receiver")
	}
	d := s.Clone()
	delete(d, r2)
	if len(s) != 2 {
		t.Fatal("Clone is shallow")
	}
}

func TestAllInputs(t *testing.T) {
	sys := twoMachine(t)
	// Port order, then sorted symbols within a port; no reset.
	want := []Input{{Port: 0, Sym: "i"}, {Port: 0, Sym: "n"}, {Port: 0, Sym: "x"}, {Port: 1, Sym: "m"}, {Port: 1, Sym: "w"}}
	got := sys.AllInputs()
	if len(got) != len(want) {
		t.Fatalf("AllInputs = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("AllInputs = %v, want %v", got, want)
		}
	}
}
