package async

import (
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

func TestOutcomesQueuedContainsAtomic(t *testing.T) {
	// The queued semantics can always deliver immediately, so every atomic
	// outcome must be queued-possible.
	sys := paper.MustFigure1()
	scripts := []Script{
		{Inputs: [][]cfsm.Symbol{{"a", "c"}, {"c'"}, {"c'", "v"}}},
		{Inputs: [][]cfsm.Symbol{{"c"}, {"d'"}, nil}},
		{Inputs: [][]cfsm.Symbol{{"a", "f"}, {"c'", "t"}, {"x"}}},
	}
	for i, script := range scripts {
		atomic, _, err := Outcomes(sys, script)
		if err != nil {
			t.Fatalf("script %d: Outcomes: %v", i, err)
		}
		queued, err := OutcomesQueued(sys, script)
		if err != nil {
			t.Fatalf("script %d: OutcomesQueued: %v", i, err)
		}
		for key := range atomic {
			if _, ok := queued[key]; !ok {
				t.Errorf("script %d: atomic outcome %q missing from queued set %v",
					i, key, queued.Keys())
			}
		}
	}
}

// TestQueuedEqualsAtomicOnChainRestrictedSystems documents an empirical
// finding: for systems satisfying the paper's internal-chain restriction
// (one message per input, one hop), the queued and atomic semantics admit
// the same per-port outcome sets on every script we test. In other words,
// the synchronization assumption costs nothing observationally here — the
// justification behind the paper's modeling choice.
func TestQueuedEqualsAtomicOnChainRestrictedSystems(t *testing.T) {
	sys := paper.MustFigure1()
	scripts := []Script{
		{Inputs: [][]cfsm.Symbol{{"a", "c"}, {"c'", "d'"}, {"c'"}}},
		{Inputs: [][]cfsm.Symbol{{"c"}, {"d'"}, {"v"}}},
		{Inputs: [][]cfsm.Symbol{{"a", "f"}, {"t"}, {"c'", "x"}}},
		{Inputs: [][]cfsm.Symbol{{"e"}, {"q"}, {"d'"}}},
	}
	for i, script := range scripts {
		atomic, _, err := Outcomes(sys, script)
		if err != nil {
			t.Fatalf("script %d: Outcomes: %v", i, err)
		}
		queued, err := OutcomesQueued(sys, script)
		if err != nil {
			t.Fatalf("script %d: OutcomesQueued: %v", i, err)
		}
		if len(atomic) != len(queued) {
			t.Errorf("script %d: atomic %d outcomes, queued %d:\n atomic %v\n queued %v",
				i, len(atomic), len(queued), atomic.Keys(), queued.Keys())
			continue
		}
		for key := range atomic {
			if _, ok := queued[key]; !ok {
				t.Errorf("script %d: sets differ at %q", i, key)
			}
		}
	}
}

func TestPossibleQueued(t *testing.T) {
	sys := paper.MustFigure1()
	script := SinglePort(sys.N(), paper.M1, []cfsm.Symbol{"a"})
	set, err := OutcomesQueued(sys, script)
	if err != nil {
		t.Fatal(err)
	}
	if !set.Contains(Outcome{Streams: [][]cfsm.Symbol{{"c'"}, nil, nil}}) {
		t.Fatalf("queued outcomes %v lack c' at port 1", set.Keys())
	}
	if set.Contains(Outcome{Streams: [][]cfsm.Symbol{{"d'"}, nil, nil}}) {
		t.Fatalf("queued outcomes %v admit d' at port 1", set.Keys())
	}
}

func TestOutcomesQueuedValidation(t *testing.T) {
	sys := paper.MustFigure1()
	if _, err := OutcomesQueued(sys, Script{Inputs: [][]cfsm.Symbol{{"a"}}}); err == nil {
		t.Error("want error for port-count mismatch")
	}
}

// BenchmarkOutcomesQueued exercises the queued-semantics exploration on a
// racy Figure 1 script; run with -benchmem to watch the per-exploration
// allocation count the integer queue keys are guarding.
func BenchmarkOutcomesQueued(b *testing.B) {
	sys := paper.MustFigure1()
	script := Script{Inputs: [][]cfsm.Symbol{{"a", "f"}, {"c'", "t"}, {"x"}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := OutcomesQueued(sys, script); err != nil {
			b.Fatal(err)
		}
	}
}

// TestOutcomesQueuedAllocationBudget pins the exploration's allocation count
// so a regression back to formatted (allocating) queue keys fails loudly:
// with string keys this exploration costs ~50% more allocations.
func TestOutcomesQueuedAllocationBudget(t *testing.T) {
	sys := paper.MustFigure1()
	script := Script{Inputs: [][]cfsm.Symbol{{"a", "f"}, {"c'", "t"}, {"x"}}}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := OutcomesQueued(sys, script); err != nil {
			t.Fatal(err)
		}
	})
	const budget = 2600 // measured 2326 with integer keys; string keys blow well past this
	if allocs > budget {
		t.Errorf("OutcomesQueued allocations = %.0f, budget %d", allocs, budget)
	}
	t.Logf("OutcomesQueued allocations = %.0f", allocs)
}
