package fsm

import (
	"math/rand"
	"testing"
)

func TestPresetDSCounterLike(t *testing.T) {
	// threeState has pairwise-distinguishable states; input c alone already
	// separates s2 (z) from s0/s1 (ε), and a/b separate the rest.
	m := threeState(t)
	seq, ok := m.PresetDS()
	if !ok {
		t.Fatal("no preset DS found for a machine with distinct states")
	}
	if !m.VerifyPresetDS(seq) {
		t.Fatalf("PresetDS returned an invalid sequence %v", seq)
	}
}

func TestPresetDSEquivalentStates(t *testing.T) {
	m := redundant(t) // s1 ≡ s2
	if _, ok := m.PresetDS(); ok {
		t.Fatal("machine with equivalent states must have no preset DS")
	}
}

func TestPresetDSSingleState(t *testing.T) {
	m, err := New("S", "s0", []State{"s0"}, []Transition{
		{Name: "t", From: "s0", Input: "a", Output: "x", To: "s0"},
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	seq, ok := m.PresetDS()
	if !ok || len(seq) != 0 {
		t.Fatalf("single-state DS = %v/%v", seq, ok)
	}
	if !m.VerifyPresetDS(nil) {
		t.Fatal("empty sequence must verify for a single state")
	}
}

func TestVerifyPresetDSRejectsBadSequence(t *testing.T) {
	m := threeState(t)
	// Input a alone: s0→x, s1→x — identical outputs, not a DS.
	if m.VerifyPresetDS([]Symbol{"a"}) {
		t.Fatal("a is not a distinguishing sequence")
	}
}

// TestPresetDSProperty: whenever PresetDS succeeds on a random machine, the
// sequence verifies.
func TestPresetDSProperty(t *testing.T) {
	for seed := int64(0); seed < 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := randomMachine(rng)
		seq, ok := m.PresetDS()
		if !ok {
			continue
		}
		if !m.VerifyPresetDS(seq) {
			t.Errorf("seed %d: invalid DS %v for machine %s", seed, seq, m.name)
		}
	}
}
