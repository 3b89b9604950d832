// Property and cross-implementation tests for the distributed-observation
// model: the linear-time matcher (Match) against a brute-force interleaving
// enumerator, the bounded closure (Closure) against both, and the port-map
// plumbing against its documented validation errors.
package ports_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

type fixture struct {
	name  string
	sys   *cfsm.System
	suite []cfsm.TestCase
}

func fixtures(t *testing.T) []fixture {
	t.Helper()
	var out []fixture
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatalf("Figure1: %v", err)
	}
	out = append(out, fixture{"figure1", fig, paper.TestSuite()})
	abp, err := protocols.ABP()
	if err != nil {
		t.Fatalf("ABP: %v", err)
	}
	out = append(out, fixture{"abp", abp, protocols.ABPSuite()})
	relay, err := protocols.Relay()
	if err != nil {
		t.Fatalf("Relay: %v", err)
	}
	out = append(out, fixture{"relay", relay, protocols.RelaySuite()})
	for _, seed := range []int64{1, 42} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			t.Fatalf("randgen seed %d: %v", seed, err)
		}
		suite, _ := testgen.Tour(sys, 0)
		out = append(out, fixture{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	return out
}

// perMachineMap assigns every machine its own observer — the finest
// projection, losing the most global order.
func perMachineMap(t *testing.T, sys *cfsm.System) ports.Map {
	t.Helper()
	portOf := make([]string, sys.N())
	for i := range portOf {
		portOf[i] = fmt.Sprintf("site-%02d", i)
	}
	m, err := ports.New(sys, portOf)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestMapValidation(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	def := ports.Default(fig)
	if !def.Single() {
		t.Error("Default map is not single-observer")
	}
	if got := def.PortNames(); len(got) != 1 || got[0] != ports.DefaultPort {
		t.Errorf("Default PortNames = %v", got)
	}

	if _, err := ports.New(fig, []string{"a"}); err == nil {
		t.Error("New accepted an incomplete assignment")
	}
	if _, err := ports.New(fig, make([]string, fig.N())); err == nil {
		t.Error("New accepted empty observer names")
	}

	if _, err := ports.FromJSON([]byte(`{"NoSuchMachine": "a"}`), fig); err == nil {
		t.Error("FromJSON accepted an unknown machine")
	}
	if _, err := ports.FromJSON([]byte(`{`), fig); err == nil {
		t.Error("FromJSON accepted malformed JSON")
	}
	partial := fmt.Sprintf(`{%q: "a"}`, fig.Machine(0).Name())
	if fig.N() > 1 {
		if _, err := ports.FromJSON([]byte(partial), fig); err == nil {
			t.Error("FromJSON accepted a partial assignment")
		}
	}

	pm := perMachineMap(t, fig)
	data, err := pm.ToJSON(fig)
	if err != nil {
		t.Fatalf("ToJSON: %v", err)
	}
	back, err := ports.FromJSON(data, fig)
	if err != nil {
		t.Fatalf("FromJSON round-trip: %v", err)
	}
	for i := 0; i < fig.N(); i++ {
		if back.Port(i) != pm.Port(i) {
			t.Errorf("round-trip port of machine %d: %q != %q", i, back.Port(i), pm.Port(i))
		}
	}
	if pm.Single() {
		t.Error("per-machine map reports Single")
	}
}

func TestProjectDropsSilenceAndPreservesOrder(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	pm := perMachineMap(t, fig)
	global := []cfsm.Observation{
		{Sym: "x", Port: 0},
		{Sym: cfsm.Epsilon, Port: 1},
		{Sym: "y", Port: 1},
		{Sym: cfsm.Null, Port: 0},
		{Sym: "z", Port: 0},
	}
	p := ports.Project(pm, global)
	if p.Events() != 3 {
		t.Fatalf("Events = %d, want 3 (silence projected)", p.Events())
	}
	if got := len(p); got != len(pm.PortNames()) {
		t.Fatalf("projection has %d traces for %d observers", got, len(pm.PortNames()))
	}
	if len(p[0].Events) != 2 || p[0].Events[0].Sym != "x" || p[0].Events[1].Sym != "z" {
		t.Errorf("observer 0 trace wrong: %v", p[0].Events)
	}
	if len(p[1].Events) != 1 || p[1].Events[0].Sym != "y" {
		t.Errorf("observer 1 trace wrong: %v", p[1].Events)
	}
	if !ports.Consistent(pm, global, p) {
		t.Error("a sequence is not consistent with its own projection")
	}
}

// enumerate returns every global sequence consistent with the projection for
// the test case's slot skeleton, with silences rendered canonically (the
// expectation's silent form where the expectation is silent, ε at the input
// port otherwise). It is exponential and only used on small cases.
func enumerate(m ports.Map, tc cfsm.TestCase, expected []cfsm.Observation, p ports.Projection) [][]cfsm.Observation {
	k := len(tc.Inputs)
	queues := make([][]cfsm.Observation, len(p))
	next := make([]int, len(p))
	for i, lt := range p {
		queues[i] = lt.Events
	}
	slots, events := 0, p.Events()
	for _, in := range tc.Inputs {
		if !in.IsReset() {
			slots++
		}
	}
	var out [][]cfsm.Observation
	cur := make([]cfsm.Observation, 0, k)
	var walk func(j, silenceLeft int)
	walk = func(j, silenceLeft int) {
		if j == k {
			out = append(out, append([]cfsm.Observation(nil), cur...))
			return
		}
		in := tc.Inputs[j]
		if in.IsReset() {
			cur = append(cur, cfsm.Observation{Sym: cfsm.Null, Port: in.Port})
			walk(j+1, silenceLeft)
			cur = cur[:len(cur)-1]
			return
		}
		if silenceLeft > 0 {
			sil := cfsm.Observation{Sym: cfsm.Epsilon, Port: in.Port}
			if ports.Silent(expected[j]) {
				sil = expected[j]
			}
			cur = append(cur, sil)
			walk(j+1, silenceLeft-1)
			cur = cur[:len(cur)-1]
		}
		for qi := range queues {
			if next[qi] >= len(queues[qi]) {
				continue
			}
			cur = append(cur, queues[qi][next[qi]])
			next[qi]++
			walk(j+1, silenceLeft)
			next[qi]--
			cur = cur[:len(cur)-1]
		}
	}
	walk(0, slots-events)
	return out
}

// visiblePrefix returns the first slot where the sequence visibly differs
// from the expectation (len(expected) if it never does): events must match
// exactly, silence matches silence regardless of annotation.
func visiblePrefix(expected, w []cfsm.Observation) int {
	for j := range expected {
		if w[j] == expected[j] {
			continue
		}
		if ports.Silent(w[j]) && ports.Silent(expected[j]) {
			continue
		}
		return j
	}
	return len(expected)
}

// TestMatchAgainstBruteForce pins the linear-time matcher to the enumerated
// semantics on every fixture × every single-transition mutant × every test
// case small enough to enumerate: L is the maximal visible prefix over all
// consistent interleavings, Full iff some interleaving fully matches, the
// interleaving count is exact, and the canonical completion is a consistent
// interleaving diverging exactly at L.
func TestMatchAgainstBruteForce(t *testing.T) {
	const enumCap = 3000
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			pm := perMachineMap(t, fx.sys)
			checked := 0
			for _, f := range fault.Enumerate(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatalf("apply: %v", err)
				}
				for _, tc := range fx.suite {
					expected, err := fx.sys.Run(tc)
					if err != nil {
						t.Fatalf("run spec: %v", err)
					}
					global, err := mut.Run(tc)
					if err != nil {
						continue
					}
					p := ports.Project(pm, global)
					res, err := ports.Match(pm, tc, expected, p)
					if err != nil {
						t.Fatalf("Match(%s): %v", tc.Name, err)
					}

					// Completion invariants hold on every case, large or small.
					if len(res.Completion) != len(expected) {
						t.Fatalf("%s: completion length %d, want %d", tc.Name, len(res.Completion), len(expected))
					}
					if !ports.Consistent(pm, res.Completion, p) {
						t.Fatalf("%s: completion inconsistent with the projection", tc.Name)
					}
					if got := visiblePrefix(expected, res.Completion); got != res.L && !res.Full {
						t.Fatalf("%s: completion diverges at %d, matcher says L=%d", tc.Name, got, res.L)
					}
					if res.Full != (res.L == len(expected)) {
						t.Fatalf("%s: Full=%v with L=%d/%d", tc.Name, res.Full, res.L, len(expected))
					}
					if res.Full != ports.Project(pm, expected).Equal(p) {
						t.Fatalf("%s: Full=%v but projection equality says %v",
							tc.Name, res.Full, ports.Project(pm, expected).Equal(p))
					}

					if res.Interleavings > enumCap {
						continue
					}
					all := enumerate(pm, tc, expected, p)
					if uint64(len(all)) != res.Interleavings {
						t.Fatalf("%s: %d enumerated interleavings, matcher counted %d",
							tc.Name, len(all), res.Interleavings)
					}
					maxPrefix := 0
					for _, w := range all {
						if !ports.Consistent(pm, w, p) {
							t.Fatalf("%s: enumerator produced an inconsistent interleaving", tc.Name)
						}
						if v := visiblePrefix(expected, w); v > maxPrefix {
							maxPrefix = v
						}
					}
					if maxPrefix != res.L {
						t.Fatalf("%s: brute-force maximal prefix %d, matcher L=%d", tc.Name, maxPrefix, res.L)
					}
					checked++
				}
			}
			if checked == 0 {
				// The completion invariants above still ran on every case;
				// only the exponential enumeration was skipped.
				t.Logf("no case small enough to enumerate (counts exceed %d)", enumCap)
			}
		})
	}
}

// TestClosureMatchesBruteForce pins the bounded closure to the enumerated
// union: for symptomatic cases, the closure's conflict set must equal the
// union over all consistent interleavings of the transitions the
// specification executed up to each interleaving's first visible divergence.
func TestClosureMatchesBruteForce(t *testing.T) {
	const enumCap = 2000
	for _, fx := range fixtures(t) {
		t.Run(fx.name, func(t *testing.T) {
			pm := perMachineMap(t, fx.sys)
			checked := 0
			for _, f := range fault.Enumerate(fx.sys) {
				mut, err := f.Apply(fx.sys)
				if err != nil {
					t.Fatal(err)
				}
				for _, tc := range fx.suite {
					expected, steps, err := fx.sys.RunTrace(tc)
					if err != nil {
						t.Fatal(err)
					}
					global, err := mut.Run(tc)
					if err != nil {
						continue
					}
					p := ports.Project(pm, global)
					res, err := ports.Match(pm, tc, expected, p)
					if err != nil {
						t.Fatal(err)
					}
					if res.Full || res.Interleavings > enumCap {
						continue
					}
					cl, err := ports.Closure(fx.sys, pm, tc, p, enumCap+1)
					if err != nil {
						t.Fatalf("Closure(%s): %v", tc.Name, err)
					}
					if cl.Truncated {
						t.Fatalf("%s: closure truncated below the enumeration cap", tc.Name)
					}

					want := map[cfsm.Ref]bool{}
					for _, w := range enumerate(pm, tc, expected, p) {
						d := visiblePrefix(expected, w)
						if d == len(expected) {
							continue
						}
						for j := 0; j <= d; j++ {
							for _, e := range steps[j] {
								want[e.Ref()] = true
							}
						}
					}
					got := map[cfsm.Ref]bool{}
					for _, r := range cl.Refs {
						got[r] = true
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s: closure refs %v, brute force %v", tc.Name, cl.Refs, want)
					}

					// The analytic claim behind Match: the union equals the
					// executed-transition set of the maximal consistent prefix.
					atL := map[cfsm.Ref]bool{}
					for j := 0; j <= res.L && j < len(steps); j++ {
						for _, e := range steps[j] {
							atL[e.Ref()] = true
						}
					}
					if !reflect.DeepEqual(got, atL) {
						t.Fatalf("%s: closure refs %v differ from prefix-at-L refs %v", tc.Name, cl.Refs, atL)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Skip("no symptomatic case small enough to cross-check")
			}
		})
	}
}

// TestCanonicalOracle pins the canonicalization law: the canonical sequence
// projects identically to the original (no observer can tell them apart) and
// canonicalization is idempotent — it is a pure function of the projection.
func TestCanonicalOracle(t *testing.T) {
	for _, fx := range fixtures(t) {
		pm := perMachineMap(t, fx.sys)
		for _, f := range fault.Enumerate(fx.sys)[:min(8, len(fault.Enumerate(fx.sys)))] {
			mut, err := f.Apply(fx.sys)
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range fx.suite {
				global, err := mut.Run(tc)
				if err != nil {
					continue
				}
				canon := ports.Canonical(pm, tc, global)
				if !ports.Consistent(pm, canon, ports.Project(pm, global)) {
					t.Fatalf("%s/%s: canonical sequence changes the projection", fx.name, tc.Name)
				}
				again := ports.Canonical(pm, tc, canon)
				if !reflect.DeepEqual(canon, again) {
					t.Fatalf("%s/%s: canonicalization is not idempotent", fx.name, tc.Name)
				}
			}
		}
	}
}

func TestProjectionString(t *testing.T) {
	fig, err := paper.Figure1()
	if err != nil {
		t.Fatal(err)
	}
	pm := perMachineMap(t, fig)
	p := ports.Project(pm, []cfsm.Observation{{Sym: "x", Port: 0}})
	s := p.String()
	if !strings.Contains(s, "site-00") || !strings.Contains(s, "(silent)") {
		t.Errorf("projection rendering %q misses observers or silence", s)
	}
}

// TestInterleavingsCounterSaturates feeds two test cases whose consistent
// interleavings each saturate at MaxInterleavings: the report and the
// cfsmdiag_ports_interleavings_explored_total counter must both stay
// saturated instead of the int64 counter wrapping negative.
func TestInterleavingsCounterSaturates(t *testing.T) {
	spec := paper.MustFigure1()
	pm, err := ports.New(spec, []string{"site-a", "site-b", "site-c"})
	if err != nil {
		t.Fatal(err)
	}
	long := []cfsm.Input{cfsm.Reset()}
	for len(long) < 200 {
		long = append(long, spec.AllInputs()...)
	}
	suite := []cfsm.TestCase{{Name: "long-1", Inputs: long}, {Name: "long-2", Inputs: long}}
	observed, err := spec.RunSuite(suite)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.New()
	_, rep, err := ports.AnalyzeObserved(spec, suite, observed, pm, ports.WithRegistry(reg))
	if err != nil {
		t.Fatal(err)
	}
	if rep.InterleavingsExplored != ports.MaxInterleavings {
		t.Fatalf("report explored %d interleavings; the cases must saturate %d", rep.InterleavingsExplored, uint64(ports.MaxInterleavings))
	}
	if got := reg.Counter("cfsmdiag_ports_interleavings_explored_total", "").Value(); got != math.MaxInt64 {
		t.Errorf("interleavings counter = %d, want saturated at %d", got, int64(math.MaxInt64))
	}
}

// TestMatcherEqualsProjection holds the in-place matcher to its definition,
// Project(m, a).Equal(Project(m, b)), on random port maps and random
// observation pairs — half of them reorderings and perturbations of one
// another, so both answers occur often — and checks that it allocates
// nothing.
func TestMatcherEqualsProjection(t *testing.T) {
	fig := paper.MustFigure1()
	rng := rand.New(rand.NewSource(1))
	syms := []cfsm.Symbol{"a", "b", "c'", cfsm.Epsilon, cfsm.Null}
	randomObs := func(n int) []cfsm.Observation {
		seq := make([]cfsm.Observation, n)
		for i := range seq {
			seq[i] = cfsm.Observation{Sym: syms[rng.Intn(len(syms))], Port: rng.Intn(fig.N())}
		}
		return seq
	}
	equal := 0
	for trial := 0; trial < 5000; trial++ {
		portOf := make([]string, fig.N())
		observers := 1 + rng.Intn(fig.N())
		for i := range portOf {
			portOf[i] = fmt.Sprintf("site-%d", rng.Intn(observers))
		}
		pm, err := ports.New(fig, portOf)
		if err != nil {
			t.Fatal(err)
		}
		a := randomObs(rng.Intn(8))
		b := append([]cfsm.Observation(nil), a...)
		if rng.Intn(2) == 0 {
			b = randomObs(rng.Intn(8))
		} else {
			for k := rng.Intn(3); k > 0 && len(b) > 1; k-- {
				i := rng.Intn(len(b) - 1)
				switch rng.Intn(3) {
				case 0:
					b[i], b[i+1] = b[i+1], b[i]
				case 1:
					b[i].Sym = syms[rng.Intn(len(syms))]
				default:
					b = append(b[:i], b[i+1:]...)
				}
			}
		}
		got := pm.Matcher().Equal(a, b)
		if want := ports.Project(pm, a).Equal(ports.Project(pm, b)); got != want {
			t.Fatalf("map %v: Equal(%v, %v) = %v, projections say %v", portOf, a, b, got, want)
		}
		if got {
			equal++
		}
	}
	if equal < 500 {
		t.Fatalf("only %d of 5000 pairs were equal; the test barely exercises equality", equal)
	}
	pm := perMachineMap(t, fig)
	a := randomObs(12)
	if allocs := testing.AllocsPerRun(100, func() { pm.Matcher().Equal(a, a) }); allocs != 0 {
		t.Fatalf("Equal allocates %.0f times per call", allocs)
	}
}
