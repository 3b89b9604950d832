// Search-parity tests: the compiled searches — Step 6's transfer and
// distinguishing searches (over every input or one port's, between
// single-fault or two-fault variants), the transition tour's step search and the
// reachability pass of specification analysis — must return exactly what
// the interpreted reference searches in internal/refsearch return: the same
// sequence, the same verdict, the same reachable configurations,
// executable transitions and strong connectivity. They are checked on
// configuration spaces small enough for the dense visited array, large
// enough for the visited map, and past uint64.
package compiled_test

import (
	"fmt"
	"slices"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/multifault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
)

// parity compares one engine's searches with the reference's over its source
// system.
type parity struct {
	t      *testing.T
	eng    *compiled.Engine
	sys    *cfsm.System
	faults []fault.Fault
}

func newParity(t *testing.T, sys *cfsm.System) parity {
	t.Helper()
	eng, err := compiled.NewEngine(sys)
	if err != nil {
		t.Fatalf("NewEngine: %v", err)
	}
	return parity{t: t, eng: eng, sys: sys, faults: fault.Enumerate(sys)}
}

// mutant returns the fault at index i (nil for -1, the specification) and
// the system it realizes.
func (p parity) mutant(i int) (*fault.Fault, *cfsm.System) {
	p.t.Helper()
	if i < 0 {
		return nil, p.sys
	}
	f := p.faults[i]
	sys, err := f.Apply(p.sys)
	if err != nil {
		p.t.Fatalf("apply %s: %v", f.Describe(p.sys), err)
	}
	return &f, sys
}

// avoidOne is the avoid set holding only the transition at index i of the
// system's refs, or nil for i < 0.
func (p parity) avoidOne(i int) cfsm.RefSet {
	if i < 0 {
		return nil
	}
	refs := p.sys.Refs()
	return cfsm.RefSet{refs[i%len(refs)]: true}
}

// transfer compares TransferToState and returns the compiled verdict.
func (p parity) transfer(machine int, target cfsm.State, avoid cfsm.RefSet) bool {
	p.t.Helper()
	got, gotOK := p.eng.TransferToState(machine, target, avoid)
	want, wantOK := refsearch.TransferToState(p.sys, machine, target, avoid)
	if gotOK != wantOK || !slices.Equal(got, want.Inputs) {
		p.t.Errorf("TransferToState(%d, %s, avoid %v): compiled %v %v, refsearch %v %v",
			machine, target, avoid, got, gotOK, want.Inputs, wantOK)
	}
	return gotOK
}

// sides is one pair of variants run on a prefix on both engines: the
// compiled variants with the configurations they reach, and the
// interpreted ones.
type sides struct {
	va, vb compiled.Variant
	ca, cb []int32
	ta, tb refsearch.Variant
}

// run positions the compiled variants va and vb, realizing the systems sa
// and sb, at the configurations they reach on prefix. ok is false when the
// prefix fails, which it must do on both engines alike.
func (p parity) run(va compiled.Variant, sa *cfsm.System, vb compiled.Variant, sb *cfsm.System, prefix []cfsm.Input) (sides, bool) {
	p.t.Helper()
	_, ca, errA := va.RunInputs(prefix)
	_, cb, errB := vb.RunInputs(prefix)
	cfgA, wantErrA := runPrefix(sa, prefix)
	cfgB, wantErrB := runPrefix(sb, prefix)
	if (errA == nil) != (wantErrA == nil) || (errB == nil) != (wantErrB == nil) {
		p.t.Fatalf("prefix %v: compiled errors %v/%v, interpreted %v/%v", prefix, errA, errB, wantErrA, wantErrB)
	}
	if errA != nil || errB != nil {
		return sides{}, false
	}
	for i, cfg := range [2][]int32{ca, cb} {
		want := [2]cfsm.Config{cfgA, cfgB}[i]
		for m, id := range cfg {
			if got := p.sys.Machine(m).States()[id]; got != want[m] {
				p.t.Fatalf("prefix %v: compiled side %d reaches %s in machine %d, interpreted %s", prefix, i, got, m, want[m])
			}
		}
	}
	return sides{va: va, vb: vb, ca: ca, cb: cb,
		ta: refsearch.Variant{Sys: sa, Cfg: cfgA}, tb: refsearch.Variant{Sys: sb, Cfg: cfgB}}, true
}

// mutants runs mutants a and b (-1: the specification) on prefix.
func (p parity) mutants(a, b int, prefix []cfsm.Input) (sides, bool) {
	p.t.Helper()
	fa, sa := p.mutant(a)
	fb, sb := p.mutant(b)
	va, err := p.eng.Variant(fa)
	if err != nil {
		p.t.Fatal(err)
	}
	vb, err := p.eng.Variant(fb)
	if err != nil {
		p.t.Fatal(err)
	}
	return p.run(va, sa, vb, sb, prefix)
}

// distinguish runs both sides' distinguishing search between the variants
// and returns the compiled sequence.
func (p parity) distinguish(s sides, avoid cfsm.RefSet, projected bool) []cfsm.Input {
	p.t.Helper()
	got, gotOK, gotGlobal := p.eng.Distinguish(s.va, s.ca, s.vb, s.cb, avoid, projected)
	want, wantOK, wantGlobal := refsearch.Distinguish(s.ta, s.tb, p.sys.AllInputs(), avoid, projected)
	if gotOK != wantOK || gotGlobal != wantGlobal || !slices.Equal(got, want) {
		p.t.Errorf("Distinguish(%v, %v, avoid %v, projected %v): compiled %v %v %v, refsearch %v %v %v",
			s.ta.Cfg, s.tb.Cfg, avoid, projected, got, gotOK, gotGlobal, want, wantOK, wantGlobal)
	}
	return got
}

// distinguishMutants is distinguish between mutants a and b (-1: the
// specification) from the configurations they reach on prefix.
func (p parity) distinguishMutants(a, b int, prefix []cfsm.Input, avoid cfsm.RefSet, projected bool) []cfsm.Input {
	p.t.Helper()
	s, ok := p.mutants(a, b, prefix)
	if !ok {
		return nil
	}
	return p.distinguish(s, avoid, projected)
}

// distinguishPort compares the port-restricted search with the reference
// search over the port's inputs.
func (p parity) distinguishPort(s sides, port int) {
	p.t.Helper()
	var inputs []cfsm.Input
	for _, sym := range p.sys.Inputs(port) {
		inputs = append(inputs, cfsm.Input{Port: port, Sym: sym})
	}
	got, gotOK := p.eng.DistinguishPort(port, s.va, s.ca, s.vb, s.cb)
	want, wantOK, _ := refsearch.Distinguish(s.ta, s.tb, inputs, nil, false)
	if gotOK != wantOK || !slices.Equal(got, want) {
		p.t.Errorf("DistinguishPort(%d, %v, %v): compiled %v %v, refsearch %v %v",
			port, s.ta.Cfg, s.tb.Cfg, got, gotOK, want, wantOK)
	}
}

// pair checks the two-fault variant of fault a and fault b — b indexing the
// single-transition faults followed by the addressing faults, modulo their
// count — built by multifault.Hypothesis.Apply and lowered by VariantOf,
// against that system run interpreted: a test case's observations, the
// configuration reached on prefix, suite verification, and the
// distinguishing searches against the specification, over every input and
// per port. The variant's runs must leave the engine's own table in place,
// which verifying fault a against its own mutant's run right after them
// observes.
func (p parity) pair(a, b int, prefix []cfsm.Input, avoid cfsm.RefSet, projected bool) {
	p.t.Helper()
	pool := append(slices.Clip(p.faults), fault.EnumerateAddress(p.sys)...)
	h := multifault.Hypothesis{Faults: []fault.Fault{p.faults[a], pool[b%len(pool)]}}
	sys, err := h.Apply(p.sys)
	if err != nil {
		return // Apply is the acceptance check; nothing to lower
	}
	v, err := p.eng.VariantOf(sys)
	if err != nil {
		p.t.Fatalf("VariantOf(%s): %v", h.Describe(p.sys), err)
	}
	tc := cfsm.TestCase{Name: "pair", Inputs: append([]cfsm.Input{cfsm.Reset()}, prefix...)}
	got, gotErr := v.Run(tc)
	want, wantErr := sys.Run(tc)
	if (gotErr == nil) != (wantErr == nil) || !slices.Equal(got, want) {
		p.t.Errorf("Run(%s, %v): compiled %v %v, interpreted %v %v", h.Describe(p.sys), prefix, got, gotErr, want, wantErr)
	}
	suite := []cfsm.TestCase{tc}
	for _, truth := range []*cfsm.System{sys, p.sys} {
		observed, err := truth.RunSuite(suite)
		if err != nil {
			continue
		}
		if got, want := v.Explains(suite, observed), wantErr == nil && slices.Equal(want, observed[0]); got != want {
			p.t.Errorf("Explains(%s, %v): compiled %v, interpreted %v", h.Describe(p.sys), observed[0], got, want)
		}
	}
	_, mutant := p.mutant(a)
	if observed, err := mutant.RunSuite(suite); err == nil && !p.eng.Explains(suite, observed, p.faults[a], nil) {
		p.t.Errorf("Explains(%s) of its own mutant's run failed right after the pair variant ran", p.faults[a].Describe(p.sys))
	}
	spec, err := p.eng.Variant(nil)
	if err != nil {
		p.t.Fatal(err)
	}
	s, ok := p.run(v, sys, spec, p.sys, prefix)
	if !ok {
		return
	}
	p.distinguish(s, avoid, projected)
	for port := 0; port < p.sys.N(); port++ {
		p.distinguishPort(s, port)
	}
}

// equivalent compares Equivalent and returns the compiled verdict.
func (p parity) equivalent(a, b int) bool {
	p.t.Helper()
	fa, sa := p.mutant(a)
	fb, sb := p.mutant(b)
	got, want := p.eng.Equivalent(fa, fb), refsearch.SystemsEquivalent(sa, sb)
	if got != want {
		p.t.Errorf("Equivalent(%d, %d): compiled %v, refsearch %v", a, b, got, want)
	}
	return got
}

// someRefs is a deterministic set of k of the system's refs (fewer when
// the stride revisits one).
func (p parity) someRefs(k int) cfsm.RefSet {
	refs := p.sys.Refs()
	set := cfsm.RefSet{}
	for i := 0; i < k; i++ {
		set[refs[(i*5)%len(refs)]] = true
	}
	return set
}

// tourStep compares the tour's step search from the configuration the
// specification reaches on prefix, with the given transitions covered, and
// returns the compiled sequence.
func (p parity) tourStep(prefix []cfsm.Input, set cfsm.RefSet) []cfsm.Input {
	p.t.Helper()
	spec, err := p.eng.Variant(nil)
	if err != nil {
		p.t.Fatal(err)
	}
	_, cfg, err := spec.RunInputs(prefix)
	if err != nil {
		return nil
	}
	want, _, wantOK := refsearch.NextUncovered(p.sys, mustPrefix(p.t, p.sys, prefix), set)
	got, gotOK := p.eng.NextUncovered(cfg, set)
	if gotOK != wantOK || !slices.Equal(got, want) {
		p.t.Errorf("NextUncovered(prefix %v, %d covered): compiled %v %v, refsearch %v %v",
			prefix, len(set), got, gotOK, want, wantOK)
	}
	return got
}

// reach compares Program.Reach with the interpreted reference: the
// configurations refsearch.ReachableConfigs discovers, the transitions they
// fire, and — for a complete pass — strong connectivity, decided by a
// string-keyed reverse search from the initial configuration.
func (p parity) reach() compiled.Reachability {
	p.t.Helper()
	got := p.eng.Program().Reach()
	configs := refsearch.ReachableConfigs(p.sys)
	inputs := p.sys.AllInputs()
	truncated := len(configs) >= 200_000
	fired := cfsm.RefSet{}
	preds := map[string][]string{}
	for key, cfg := range configs {
		for _, in := range inputs {
			next, _, trace, err := p.sys.Apply(cfg, in)
			if err != nil {
				continue
			}
			for _, e := range trace {
				fired[e.Ref()] = true
			}
			if !truncated {
				preds[next.Key()] = append(preds[next.Key()], key)
			}
		}
	}
	var unexecutable []cfsm.Ref
	for _, r := range p.sys.Refs() {
		if !fired[r] {
			unexecutable = append(unexecutable, r)
		}
	}
	if got.Configs != len(configs) || got.Truncated != truncated || !slices.Equal(got.Unexecutable, unexecutable) {
		p.t.Errorf("Reach: compiled %d configurations (truncated %v), unexecutable %v; refsearch %d (truncated %v), %v",
			got.Configs, got.Truncated, got.Unexecutable, len(configs), truncated, unexecutable)
	}
	if truncated {
		if got.StronglyConnected {
			p.t.Error("Reach: a truncated pass reported strong connectivity")
		}
		return got
	}
	start := p.sys.InitialConfig().Key()
	back := map[string]bool{start: true}
	for queue := []string{start}; len(queue) > 0; queue = queue[1:] {
		for _, k := range preds[queue[0]] {
			if !back[k] {
				back[k] = true
				queue = append(queue, k)
			}
		}
	}
	if want := len(back) == len(configs); got.StronglyConnected != want {
		p.t.Errorf("Reach: compiled strongly connected %v, refsearch %v", got.StronglyConnected, want)
	}
	return got
}

// mustPrefix is runPrefix for a prefix the specification must accept.
func mustPrefix(t *testing.T, sys *cfsm.System, prefix []cfsm.Input) cfsm.Config {
	t.Helper()
	cfg, err := runPrefix(sys, prefix)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

// runPrefix is the interpreted counterpart of Variant.RunInputs.
func runPrefix(sys *cfsm.System, prefix []cfsm.Input) (cfsm.Config, error) {
	cfg := sys.InitialConfig()
	for _, in := range prefix {
		next, _, _, err := sys.Apply(cfg, in)
		if err != nil {
			return nil, err
		}
		cfg = next
	}
	return cfg, nil
}

// walk is a deterministic input sequence of length n over the system's
// input universe.
func walk(sys *cfsm.System, n, seed int) []cfsm.Input {
	inputs := sys.AllInputs()
	out := make([]cfsm.Input, n)
	for i := range out {
		out[i] = inputs[(seed+7*i)%len(inputs)]
	}
	return out
}

func randSpec(t *testing.T, cfg randgen.Config) *cfsm.System {
	t.Helper()
	sys, err := randgen.Generate(cfg)
	if err != nil {
		t.Fatalf("randgen %+v: %v", cfg, err)
	}
	return sys
}

// initialFaults returns up to k faults of each kind on transitions leaving
// a machine's initial state: their mutants differ from the specification
// within a step or two, so even on a wide system the interpreted pair
// search ends after a handful of nodes.
func (p parity) initialFaults(k int) []int {
	var out []int
	seen := map[fault.Kind]int{}
	for i, f := range p.faults {
		t, _ := p.sys.Transition(f.Ref)
		if t.From == p.sys.Machine(f.Ref.Machine).Initial() && seen[f.Kind] < k {
			seen[f.Kind]++
			out = append(out, i)
		}
	}
	return out
}

// torus is two machines, each walking a cycle of n states on its own input
// and emitting "wrap" instead of "out" when it closes the cycle: all n²
// configurations are reachable, and with no internal messages the
// interpreted searches stay cheap even at the node limit.
func torus(t *testing.T, n int) *cfsm.System {
	t.Helper()
	var ms []*cfsm.Machine
	for _, name := range []string{"A", "B"} {
		states := make([]cfsm.State, n)
		for i := range states {
			states[i] = cfsm.State(fmt.Sprintf("%s%04d", name, i))
		}
		trans := make([]cfsm.Transition, n)
		for i := range trans {
			out := cfsm.Symbol("out" + name)
			if i == n-1 {
				out = cfsm.Symbol("wrap" + name)
			}
			trans[i] = cfsm.Transition{Name: fmt.Sprintf("t%d", i), From: states[i],
				Input: cfsm.Symbol("in" + name), Output: out, To: states[(i+1)%n], Dest: cfsm.DestEnv}
		}
		m, err := cfsm.NewMachine(name, states[0], states, trans)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	sys, err := cfsm.NewSystem(ms...)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

// TestSearchParity compares the compiled searches with the reference's on
// Figure 1 and randgen 4×4 seed 1 (every search on the dense visited array),
// a 6^4-configuration system (dense for single configurations, the visited
// map for pairs), and a 2^32- and a 2^68-configuration system (the map
// throughout, the latter past uint64). Small systems are checked over every
// machine, state and mutant, with their reachability pass; the wide ones
// over a sample of machines, states and tour steps and over the mutants of
// their initial transitions. Their reachability pass is left to core's
// TestCheckAssumptionsWideSpec: the interpreted reference walks 200,000
// string-keyed configurations (about 20 s at 2^32, two minutes at 2^68).
func TestSearchParity(t *testing.T) {
	small := []struct {
		name  string
		sys   *cfsm.System
		every int // check every n-th mutant
	}{
		{"figure1", paper.MustFigure1(), 1},
		{"rand44-1", randSpec(t, randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 1}), 5},
		{"rand46-1", randSpec(t, randgen.Config{N: 4, States: 6, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.6, Seed: 1}), 17},
	}
	for _, fx := range small {
		t.Run(fx.name, func(t *testing.T) {
			p := newParity(t, fx.sys)
			for m := 0; m < fx.sys.N(); m++ {
				for _, s := range append(fx.sys.Machine(m).States(), "zz-undeclared") {
					for av := -1; av < 3; av++ {
						p.transfer(m, s, p.avoidOne(m+av))
					}
				}
			}
			p.reach()
			for k := 0; k <= len(fx.sys.Refs()); k += 3 {
				p.tourStep(walk(fx.sys, k%5, k), p.someRefs(k))
			}
			for i := -1; i < len(p.faults); i += fx.every {
				projected := i%2 == 0
				p.distinguishMutants(-1, i, nil, nil, projected)
				p.distinguishMutants(-1, i, walk(fx.sys, 3, i+1), p.avoidOne(i+1), !projected)
				p.equivalent(-1, i)
				p.equivalent(i, (i*7+3)%len(p.faults))
				if i >= 0 {
					j := (i*11 + 5) % len(p.faults)
					if s, ok := p.mutants(i, j, walk(fx.sys, 2, i)); ok {
						for port := 0; port < fx.sys.N(); port++ {
							p.distinguishPort(s, port)
						}
					}
					p.pair(i, i*13+5, walk(fx.sys, i%4, i), p.avoidOne(j), projected)
				}
			}
		})
	}

	for _, fx := range []struct {
		name string
		cfg  randgen.Config
	}{
		{"2^32", randgen.Config{N: 8, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1}},
		{"2^68", randgen.Config{N: 17, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1}},
	} {
		t.Run(fx.name, func(t *testing.T) {
			sys := randSpec(t, fx.cfg)
			p := newParity(t, sys)
			if n, ok := p.eng.Program().Configs(); ok && n <= 1<<31 {
				t.Fatalf("%d configurations; the fixture must exceed 2^31", n)
			}
			for m := 0; m < sys.N(); m += 3 {
				states := sys.Machine(m).States()
				for _, s := range []cfsm.State{states[1], states[len(states)/2]} {
					p.transfer(m, s, nil)
					p.transfer(m, s, p.avoidOne(m))
				}
			}
			for k := 0; k < 3; k++ {
				p.tourStep(walk(sys, k, k), p.someRefs(k))
			}
			muts := p.initialFaults(2)
			for k, i := range muts {
				for _, projected := range []bool{false, true} {
					p.distinguishMutants(-1, i, nil, nil, projected)
					p.distinguishMutants(-1, i, nil, p.avoidOne(len(p.sys.Refs())-1-k), projected)
				}
				p.distinguishMutants(i, muts[(k+1)%len(muts)], nil, nil, false)
				p.equivalent(-1, i)
			}
		})
	}

	// Deep searches on the torus of 500² configurations (dense visited
	// array) and 500⁴ pairs (visited map): the output fault on A's 301st
	// transition is first visible after 301 inputs, some 45,000 pairs into
	// the search; no machine is ever in an undeclared state, and the
	// specification never separates from itself, so those two searches give
	// up at the 200,000-node limit on both sides.
	t.Run("limit", func(t *testing.T) {
		p := parity{t: t, sys: torus(t, 500)}
		var err error
		if p.eng, err = compiled.NewEngine(p.sys); err != nil {
			t.Fatal(err)
		}
		p.faults = []fault.Fault{{Ref: cfsm.Ref{Machine: 0, Name: "t300"}, Kind: fault.KindOutput, Output: "wrapA"}}
		if seq := p.distinguishMutants(-1, 0, nil, nil, false); len(seq) != 301 {
			t.Errorf("distinguishing sequence of %d inputs, want 301", len(seq))
		}
		if p.transfer(0, "zz-undeclared", nil) || !p.equivalent(-1, -1) {
			t.Error("a search past the node limit succeeded")
		}
		// The tour step to A's 301st transition, every other one covered,
		// and the 500² configurations past the reachability pass's limit.
		covered := cfsm.NewRefSet(p.sys.Refs()...)
		delete(covered, cfsm.Ref{Machine: 0, Name: "t300"})
		if seq := p.tourStep(nil, covered); len(seq) != 301 {
			t.Errorf("tour step of %d inputs, want 301", len(seq))
		}
		if r := p.reach(); !r.Truncated {
			t.Error("the reachability pass did not stop at the node limit")
		}
	})
}

// FuzzSearchParity compares the compiled searches and reachability pass
// with the reference's on small random systems — up to 5 machines of up to
// 6 states, so both the dense visited array and the visited map are reached
// — from random mutants, prefixes, avoid sets and covered sets, including
// the port-restricted search and the two-fault variant of the fuzzed pair
// of mutants (multifault.Hypothesis.Apply run interpreted).
func FuzzSearchParity(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(3), uint8(0), uint8(1), uint8(2), uint8(0), false)
	f.Add(int64(7), uint8(4), uint8(4), uint8(5), uint8(9), uint8(3), uint8(1), true)
	f.Add(int64(42), uint8(5), uint8(6), uint8(17), uint8(3), uint8(4), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, n, states, mutant, other, prefix, avoid uint8, projected bool) {
		cfg := randgen.Config{
			N: 1 + int(n)%5, States: 1 + int(states)%6,
			ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.6, Seed: seed,
		}
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Skip(err)
		}
		p := newParity(t, sys)
		if len(p.faults) == 0 {
			t.Skip("no faults")
		}
		a := int(mutant)%(len(p.faults)+1) - 1
		b := int(other)%(len(p.faults)+1) - 1
		av := p.avoidOne(int(avoid) - 1)
		m := int(mutant) % sys.N()
		states0 := sys.Machine(m).States()
		p.transfer(m, states0[int(other)%len(states0)], av)
		p.distinguishMutants(a, b, walk(sys, int(prefix)%6, int(seed&0xff)), av, projected)
		if s, ok := p.mutants(a, b, walk(sys, int(prefix)%4, int(seed&0xff))); ok {
			p.distinguishPort(s, int(other)%sys.N())
		}
		if a >= 0 {
			p.pair(a, int(other)+int(avoid), walk(sys, int(prefix)%6, int(seed&0xff)), av, projected)
		}
		p.equivalent(a, b)
		p.tourStep(walk(sys, int(prefix)%6, int(seed&0xff)), p.someRefs(int(other)%(len(p.faults)+1)))
		p.reach()
	})
}
