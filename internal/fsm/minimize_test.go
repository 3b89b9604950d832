package fsm

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// redundant builds a machine where s1 and s2 are equivalent:
//
//	r1: s0 -a/x-> s1   r2: s0 -b/x-> s2
//	r3: s1 -a/y-> s0   r4: s2 -a/y-> s0
func redundant(t *testing.T) *FSM {
	t.Helper()
	m, err := New("R", "s0", []State{"s0", "s1", "s2"}, []Transition{
		{Name: "r1", From: "s0", Input: "a", Output: "x", To: "s1"},
		{Name: "r2", From: "s0", Input: "b", Output: "x", To: "s2"},
		{Name: "r3", From: "s1", Input: "a", Output: "y", To: "s0"},
		{Name: "r4", From: "s2", Input: "a", Output: "y", To: "s0"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestMinimizeMergesEquivalentStates(t *testing.T) {
	m := redundant(t)
	min, mapping := m.Minimize()
	if got := len(min.States()); got != 2 {
		t.Fatalf("minimized to %d states, want 2: %v", got, min.States())
	}
	if mapping["s1"] != mapping["s2"] {
		t.Errorf("s1 and s2 should map to the same representative: %v", mapping)
	}
	if mapping["s0"] == mapping["s1"] {
		t.Errorf("s0 must stay distinct: %v", mapping)
	}
	if m.IsMinimal() {
		t.Error("redundant machine reported minimal")
	}
	if !min.IsMinimal() {
		t.Error("minimized machine reported non-minimal")
	}
}

func TestMinimizePreservesBehaviour(t *testing.T) {
	m := redundant(t)
	min, mapping := m.Minimize()
	rng := rand.New(rand.NewSource(9))
	inputs := inputsOf(m)
	for trial := 0; trial < 200; trial++ {
		seq := make([]Symbol, 1+rng.Intn(8))
		for i := range seq {
			seq[i] = inputs[rng.Intn(len(inputs))]
		}
		a, endA := m.Run(m.Initial(), seq)
		b, endB := min.Run(min.Initial(), seq)
		if !symbolsEqual(a, b) {
			t.Fatalf("behaviour changed on %v: %v vs %v", seq, a, b)
		}
		if mapping[endA] != endB {
			t.Fatalf("end state mismatch on %v: %v→%v vs %v", seq, endA, mapping[endA], endB)
		}
	}
}

func TestMinimizeAlreadyMinimal(t *testing.T) {
	m := threeState(t) // distinct behaviours per state
	min, _ := m.Minimize()
	if len(min.States()) != len(m.States()) {
		t.Fatalf("minimal machine shrank: %v", min.States())
	}
	if !m.IsMinimal() {
		t.Error("minimal machine reported non-minimal")
	}
}

// TestMinimizeProperty: for random machines, minimization preserves the
// output behaviour from the initial state.
func TestMinimizeProperty(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng)
		min, _ := m.Minimize()
		inputs := inputsOf(m)
		if len(inputs) == 0 {
			return true
		}
		for trial := 0; trial < 20; trial++ {
			seq := make([]Symbol, 1+rng.Intn(10))
			for i := range seq {
				seq[i] = inputs[rng.Intn(len(inputs))]
			}
			a, _ := m.Run(m.Initial(), seq)
			b, _ := min.Run(min.Initial(), seq)
			if !symbolsEqual(a, b) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// randomMachine builds a small random partial machine.
func randomMachine(rng *rand.Rand) *FSM {
	nStates := 2 + rng.Intn(4)
	states := make([]State, nStates)
	for i := range states {
		states[i] = State(string(rune('A' + i)))
	}
	inputs := []Symbol{"i0", "i1", "i2"}
	outputs := []Symbol{"o0", "o1"}
	var trans []Transition
	n := 0
	for _, s := range states {
		for _, in := range inputs {
			if rng.Float64() < 0.3 {
				continue
			}
			n++
			trans = append(trans, Transition{
				Name:   "t" + string(rune('0'+n%10)) + string(rune('a'+n/10)),
				From:   s,
				Input:  in,
				Output: outputs[rng.Intn(len(outputs))],
				To:     states[rng.Intn(nStates)],
			})
		}
	}
	m, err := New("rand", states[0], states, trans)
	if err != nil {
		panic(err)
	}
	return m
}
