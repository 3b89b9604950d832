package fsm

import (
	"testing"
)

// ring builds a machine whose states form a directed ring with a chord:
//
//	r0 -a-> r1 -a-> r2 -a-> r0, plus r0 -b-> r2, with distinct outputs per state.
func ring(t *testing.T) *FSM {
	t.Helper()
	m, err := New("R", "r0", []State{"r0", "r1", "r2"}, []Transition{
		{Name: "t01", From: "r0", Input: "a", Output: "o0", To: "r1"},
		{Name: "t12", From: "r1", Input: "a", Output: "o1", To: "r2"},
		{Name: "t20", From: "r2", Input: "a", Output: "o2", To: "r0"},
		{Name: "t02", From: "r0", Input: "b", Output: "o0", To: "r2"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestTransferSequence(t *testing.T) {
	m := ring(t)
	tests := []struct {
		name     string
		from, to State
		avoid    Avoid
		wantSeq  []Symbol
		wantOK   bool
	}{
		{name: "identity", from: "r0", to: "r0", wantSeq: nil, wantOK: true},
		{name: "direct chord", from: "r0", to: "r2", wantSeq: []Symbol{"b"}, wantOK: true},
		{name: "one hop", from: "r0", to: "r1", wantSeq: []Symbol{"a"}, wantOK: true},
		{
			name: "chord avoided takes the long way",
			from: "r0", to: "r2",
			avoid:   func(tr Transition) bool { return tr.Name == "t02" },
			wantSeq: []Symbol{"a", "a"}, wantOK: true,
		},
		{
			name: "fully blocked",
			from: "r0", to: "r2",
			avoid:  func(tr Transition) bool { return tr.From == "r0" },
			wantOK: false,
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			seq, ok := m.TransferSequence(tc.from, tc.to, tc.avoid)
			if ok != tc.wantOK {
				t.Fatalf("ok = %v, want %v", ok, tc.wantOK)
			}
			if !ok {
				return
			}
			if !symbolsEqual(seq, tc.wantSeq) {
				t.Fatalf("seq = %v, want %v", seq, tc.wantSeq)
			}
			// The returned sequence must really land in the target state.
			_, end := m.Run(tc.from, seq)
			if end != tc.to {
				t.Fatalf("sequence %v from %v ends in %v, want %v", seq, tc.from, end, tc.to)
			}
		})
	}
}

func TestDistinguishingSequence(t *testing.T) {
	m := ring(t)
	t.Run("same state is never distinguishable", func(t *testing.T) {
		if _, ok := m.DistinguishingSequence("r0", "r0", nil); ok {
			t.Fatal("a state must not be distinguishable from itself")
		}
	})
	t.Run("distinct outputs distinguish immediately", func(t *testing.T) {
		seq, ok := m.DistinguishingSequence("r0", "r1", nil)
		if !ok {
			t.Fatal("r0 and r1 should be distinguishable")
		}
		outA, _ := m.Run("r0", seq)
		outB, _ := m.Run("r1", seq)
		if symbolsEqual(outA, outB) {
			t.Fatalf("sequence %v does not distinguish: both yield %v", seq, outA)
		}
	})
	t.Run("defined versus undefined distinguishes", func(t *testing.T) {
		// Input b is defined only in r0.
		seq, ok := m.DistinguishingSequence("r1", "r0", nil)
		if !ok {
			t.Fatal("r1 and r0 should be distinguishable")
		}
		if len(seq) != 1 {
			t.Fatalf("expected a length-1 distinguishing sequence, got %v", seq)
		}
	})
	t.Run("equivalent states", func(t *testing.T) {
		m2, err := New("E", "s0", []State{"s0", "s1"}, []Transition{
			{Name: "a0", From: "s0", Input: "a", Output: "x", To: "s1"},
			{Name: "a1", From: "s1", Input: "a", Output: "x", To: "s0"},
		})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, ok := m2.DistinguishingSequence("s0", "s1", nil); ok {
			t.Fatal("s0 and s1 are equivalent; no distinguishing sequence should exist")
		}
	})
	t.Run("avoidance can destroy distinguishability", func(t *testing.T) {
		avoidAll := func(Transition) bool { return true }
		// With all transitions avoided every input is skipped, so nothing
		// can be applied and the states stay indistinct.
		if _, ok := m.DistinguishingSequence("r0", "r1", avoidAll); ok {
			t.Fatal("avoid-everything must make states indistinct")
		}
	})
}

func TestCharacterizationSet(t *testing.T) {
	m := ring(t)
	w, indistinct := m.CharacterizationSet([]State{"r0", "r1", "r2"}, nil)
	if len(indistinct) != 0 {
		t.Fatalf("indistinct pairs: %v", indistinct)
	}
	if len(w) == 0 {
		t.Fatal("empty characterization set for distinguishable states")
	}
	// Every pair must be separated by at least one sequence in w.
	states := []State{"r0", "r1", "r2"}
	for i := 0; i < len(states); i++ {
		for j := i + 1; j < len(states); j++ {
			if !separatedBy(m, states[i], states[j], w) {
				t.Errorf("W does not separate %v and %v", states[i], states[j])
			}
		}
	}
}

func TestCharacterizationSetIndistinct(t *testing.T) {
	m, err := New("E", "s0", []State{"s0", "s1"}, []Transition{
		{Name: "a0", From: "s0", Input: "a", Output: "x", To: "s1"},
		{Name: "a1", From: "s1", Input: "a", Output: "x", To: "s0"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	w, indistinct := m.CharacterizationSet([]State{"s0", "s1"}, nil)
	if len(w) != 0 {
		t.Errorf("w = %v, want empty", w)
	}
	if len(indistinct) != 1 {
		t.Fatalf("indistinct = %v, want one pair", indistinct)
	}
}
