package fsm

import (
	"slices"
	"strings"
	"testing"
)

// threeState builds the small machine used across the unit tests:
//
//	ta: s0 -a/x-> s1    tb: s1 -b/y-> s2    tc: s2 -c/z-> s0
//	td: s0 -b/y-> s0    te: s1 -a/x-> s1
func threeState(t *testing.T) *FSM {
	t.Helper()
	m, err := New("M", "s0", []State{"s0", "s1", "s2"}, []Transition{
		{Name: "ta", From: "s0", Input: "a", Output: "x", To: "s1"},
		{Name: "tb", From: "s1", Input: "b", Output: "y", To: "s2"},
		{Name: "tc", From: "s2", Input: "c", Output: "z", To: "s0"},
		{Name: "td", From: "s0", Input: "b", Output: "y", To: "s0"},
		{Name: "te", From: "s1", Input: "a", Output: "x", To: "s1"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

// inputsOf returns the distinct inputs of m's transitions, in transition
// order.
func inputsOf(m *FSM) []Symbol {
	var inputs []Symbol
	for _, t := range m.Transitions() {
		if !slices.Contains(inputs, t.Input) {
			inputs = append(inputs, t.Input)
		}
	}
	return inputs
}

func TestNewValidation(t *testing.T) {
	valid := []Transition{{Name: "t1", From: "s0", Input: "a", Output: "x", To: "s1"}}
	tests := []struct {
		name    string
		machine string
		initial State
		states  []State
		trans   []Transition
		wantErr string
	}{
		{
			name:    "valid machine",
			machine: "M", initial: "s0", states: []State{"s0", "s1"}, trans: valid,
		},
		{
			name:    "empty machine name",
			machine: "", initial: "s0", states: []State{"s0"},
			wantErr: "name must not be empty",
		},
		{
			name:    "no states",
			machine: "M", initial: "s0", states: nil,
			wantErr: "at least one state",
		},
		{
			name:    "duplicate state",
			machine: "M", initial: "s0", states: []State{"s0", "s0"},
			wantErr: "duplicate state",
		},
		{
			name:    "initial not declared",
			machine: "M", initial: "s9", states: []State{"s0"},
			wantErr: "initial state",
		},
		{
			name:    "unnamed transition",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{From: "s0", Input: "a", Output: "x", To: "s0"}},
			wantErr: "no name",
		},
		{
			name:    "duplicate transition name",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans: []Transition{
				{Name: "t", From: "s0", Input: "a", Output: "x", To: "s0"},
				{Name: "t", From: "s0", Input: "b", Output: "x", To: "s0"},
			},
			wantErr: "duplicate transition name",
		},
		{
			name:    "undeclared source state",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s9", Input: "a", Output: "x", To: "s0"}},
			wantErr: "undeclared state",
		},
		{
			name:    "undeclared destination state",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s0", Input: "a", Output: "x", To: "s9"}},
			wantErr: "undeclared state",
		},
		{
			name:    "empty input symbol",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s0", Input: "", Output: "x", To: "s0"}},
			wantErr: "empty symbol",
		},
		{
			name:    "reserved epsilon symbol",
			machine: "M", initial: "s0", states: []State{"s0"},
			trans:   []Transition{{Name: "t", From: "s0", Input: Epsilon, Output: "x", To: "s0"}},
			wantErr: "reserved symbol",
		},
		{
			name:    "nondeterminism",
			machine: "M", initial: "s0", states: []State{"s0", "s1"},
			trans: []Transition{
				{Name: "t1", From: "s0", Input: "a", Output: "x", To: "s0"},
				{Name: "t2", From: "s0", Input: "a", Output: "y", To: "s1"},
			},
			wantErr: "nondeterminism",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := New(tc.machine, tc.initial, tc.states, tc.trans)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("New: unexpected error %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("New: got error %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestAccessors(t *testing.T) {
	m := threeState(t)
	if m.Initial() != "s0" {
		t.Errorf("Initial() = %q, want s0", m.Initial())
	}
	if got := m.States(); len(got) != 3 || got[0] != "s0" || got[2] != "s2" {
		t.Errorf("States() = %v, want sorted [s0 s1 s2]", got)
	}
	if got := inputsOf(m); len(got) != 3 {
		t.Errorf("transition inputs = %v, want 3 symbols", got)
	}
	if m.NumTransitions() != 5 {
		t.Errorf("NumTransitions() = %d, want 5", m.NumTransitions())
	}
	if !m.HasState("s1") || m.HasState("s9") {
		t.Errorf("HasState misclassified a state")
	}
	if _, ok := m.ByName("tb"); !ok {
		t.Errorf("ByName(tb) not found")
	}
	if _, ok := m.ByName("zz"); ok {
		t.Errorf("ByName(zz) unexpectedly found")
	}
	tr, ok := m.Lookup("s1", "b")
	if !ok || tr.Name != "tb" {
		t.Errorf("Lookup(s1,b) = %v,%v, want tb", tr, ok)
	}
}

func TestTransitionsSortedAndCopied(t *testing.T) {
	m := threeState(t)
	ts := m.Transitions()
	if len(ts) != 5 {
		t.Fatalf("Transitions() returned %d, want 5", len(ts))
	}
	for i := 1; i < len(ts); i++ {
		if ts[i-1].From > ts[i].From ||
			(ts[i-1].From == ts[i].From && ts[i-1].Input > ts[i].Input) {
			t.Fatalf("Transitions() not sorted at %d: %v then %v", i, ts[i-1], ts[i])
		}
	}
	ts[0].Name = "mutated"
	if tr, _ := m.Lookup(ts[0].From, ts[0].Input); tr.Name == "mutated" {
		t.Fatal("Transitions() exposed internal state")
	}
}

func TestStepAndRun(t *testing.T) {
	m := threeState(t)
	out, next, tr, ok := m.Step("s0", "a")
	if !ok || out != "x" || next != "s1" || tr.Name != "ta" {
		t.Fatalf("Step(s0,a) = %v %v %v %v", out, next, tr, ok)
	}
	// Undefined input: epsilon, state unchanged.
	out, next, _, ok = m.Step("s0", "c")
	if ok || out != Epsilon || next != "s0" {
		t.Fatalf("Step(s0,c) = %v %v %v, want ε s0 false", out, next, ok)
	}
	outs, end := m.Run("s0", []Symbol{"a", "b", "c", "z"})
	want := []Symbol{"x", "y", "z", Epsilon}
	if !symbolsEqual(outs, want) || end != "s0" {
		t.Fatalf("Run = %v end %v, want %v end s0", outs, end, want)
	}
}

func TestCloneIsDeep(t *testing.T) {
	m := threeState(t)
	c := m.Clone()
	rewired, err := c.Rewire("ta", "q", "s2")
	if err != nil {
		t.Fatalf("Rewire: %v", err)
	}
	if tr, _ := m.Lookup("s0", "a"); tr.Output != "x" || tr.To != "s1" {
		t.Fatal("Rewire of a clone mutated the original")
	}
	if tr, _ := rewired.Lookup("s0", "a"); tr.Output != "q" || tr.To != "s2" {
		t.Fatalf("Rewire result not applied: %v", tr)
	}
}

func TestRewire(t *testing.T) {
	m := threeState(t)
	t.Run("output only", func(t *testing.T) {
		r, err := m.Rewire("ta", "q", "")
		if err != nil {
			t.Fatalf("Rewire: %v", err)
		}
		tr, _ := r.Lookup("s0", "a")
		if tr.Output != "q" || tr.To != "s1" {
			t.Fatalf("got %v", tr)
		}
	})
	t.Run("state only", func(t *testing.T) {
		r, err := m.Rewire("ta", "", "s2")
		if err != nil {
			t.Fatalf("Rewire: %v", err)
		}
		tr, _ := r.Lookup("s0", "a")
		if tr.Output != "x" || tr.To != "s2" {
			t.Fatalf("got %v", tr)
		}
	})
	t.Run("unknown transition", func(t *testing.T) {
		if _, err := m.Rewire("nope", "q", ""); err == nil {
			t.Fatal("want error for unknown transition")
		}
	})
	t.Run("unknown state", func(t *testing.T) {
		if _, err := m.Rewire("ta", "", "s9"); err == nil {
			t.Fatal("want error for unknown state")
		}
	})
}

func TestTransitionString(t *testing.T) {
	tr := Transition{Name: "t7", From: "s2", Input: "b", Output: "d'", To: "s0"}
	if got, want := tr.String(), "t7: s2 -b/d'-> s0"; got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	anon := Transition{From: "s0", Input: "a", Output: "x", To: "s1"}
	if !strings.HasPrefix(anon.String(), "?:") {
		t.Errorf("anonymous transition should render with ?: got %q", anon.String())
	}
}
