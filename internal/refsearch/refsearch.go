// Package refsearch keeps the interpreted searches: breadth-first walks over
// string-keyed cfsm.Config values and cfsm.System.Apply. The compiled engine
// (internal/compiled) runs every search in production; these are its parity
// reference. The search-parity tests and fuzzers in internal/compiled, the
// suite-generation parity tests in internal/testgen and core's interpreted
// reference engine compare against them. Only test files import this
// package, and CI fails when a command's dependencies list it.
package refsearch

import (
	"cfsmdiag/internal/cfsm"
)

// searchLimit bounds the number of configurations (or configuration pairs)
// a breadth-first search may visit before giving up. The global state space
// of an N-machine system is exponential in N; the limit turns a pathological
// search into an explicit "not found" instead of an unbounded walk. The
// compiled searches use the same limit.
const searchLimit = 200_000

// Variant is one behavioural hypothesis: a system (the specification, or the
// specification rewired with one or more faults) together with its current
// global configuration. Step 6 reduces both the "limited characterization
// set" W_k (transfer-fault hypotheses — same system text, different states)
// and the "distinguishing set" U_k (output-fault hypotheses — different
// system texts) to the problem of telling variants apart by their observable
// responses.
type Variant struct {
	Sys *cfsm.System
	Cfg cfsm.Config
}

// hitsAvoid reports whether any executed transition is in the avoid set.
func hitsAvoid(avoid cfsm.RefSet, trace []cfsm.Executed) bool {
	if len(avoid) == 0 {
		return false
	}
	for _, e := range trace {
		if avoid[e.Ref()] {
			return true
		}
	}
	return false
}

// silentObs reports an observation invisible to every local observer: ε (no
// output) or the Null reset output. Mirrors ports.Silent; the reference
// stays free of internal/ports, so the two-line predicate is duplicated
// here and pinned equal by the ports test suite.
func silentObs(o cfsm.Observation) bool {
	return o.Sym == cfsm.Epsilon || o.Sym == cfsm.Null
}

// TransferResult is a successful transfer search: the input sequence (not
// including the leading reset) and the global configuration it reaches.
type TransferResult struct {
	Inputs []cfsm.Input
	Config cfsm.Config
}

// TransferToState finds a shortest input sequence that takes the system from
// its initial configuration to any configuration in which the given machine
// is in the given state, without exercising any avoided transition. This is
// the "transfer sequence" of Step 6 — "an input sequence … required to take
// the machine from its initial state to the starting state of T_k" —
// generalized to the global system so that the side effects on the other
// machines are tracked too.
func TransferToState(sys *cfsm.System, machine int, target cfsm.State, avoid cfsm.RefSet) (TransferResult, bool) {
	start := sys.InitialConfig()
	if start[machine] == target {
		return TransferResult{Config: start}, true
	}
	seq, end, ok := transfer(sys, start, avoid, func(next cfsm.Config, _ []cfsm.Executed) bool {
		return next[machine] == target
	})
	return TransferResult{Inputs: seq, Config: end}, ok
}

// NextUncovered finds a shortest input sequence from cfg whose final step
// executes at least one transition outside covered: one step of the greedy
// transition tour.
func NextUncovered(sys *cfsm.System, cfg cfsm.Config, covered cfsm.RefSet) (seq []cfsm.Input, end cfsm.Config, ok bool) {
	return transfer(sys, cfg, nil, func(_ cfsm.Config, trace []cfsm.Executed) bool {
		for _, e := range trace {
			if !covered[e.Ref()] {
				return true
			}
		}
		return false
	})
}

// transfer is the single-configuration search behind TransferToState and
// NextUncovered: breadth-first from cfg, skipping no-progress inputs and
// avoided transitions, until a step satisfies goal. The goal test precedes
// the visited test; for TransferToState's goal on configurations that is
// immaterial, since a visited goal configuration ends the search.
func transfer(sys *cfsm.System, cfg cfsm.Config, avoid cfsm.RefSet, goal func(next cfsm.Config, trace []cfsm.Executed) bool) ([]cfsm.Input, cfsm.Config, bool) {
	type node struct {
		cfg  cfsm.Config
		path []cfsm.Input
	}
	inputs := sys.AllInputs()
	seen := map[string]bool{cfg.Key(): true}
	frontier := []node{{cfg: cfg}}
	for len(frontier) > 0 && len(seen) < searchLimit {
		n := frontier[0]
		frontier = frontier[1:]
		for _, in := range inputs {
			next, _, trace, err := sys.Apply(n.cfg, in)
			if err != nil || len(trace) == 0 {
				continue // undefined input: no progress
			}
			if hitsAvoid(avoid, trace) {
				continue
			}
			path := append(append([]cfsm.Input(nil), n.path...), in)
			if goal(next, trace) {
				return path, next, true
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			frontier = append(frontier, node{cfg: next, path: path})
		}
	}
	return nil, nil, false
}

// ReachableConfigs returns every global configuration reachable from the
// initial configuration (under no avoidance), keyed by Config.Key(). Past
// the search limit it returns the configurations discovered so far.
func ReachableConfigs(sys *cfsm.System) map[string]cfsm.Config {
	start := sys.InitialConfig()
	seen := map[string]cfsm.Config{start.Key(): start}
	frontier := []cfsm.Config{start}
	inputs := sys.AllInputs()
	for len(frontier) > 0 && len(seen) < searchLimit {
		cfg := frontier[0]
		frontier = frontier[1:]
		for _, in := range inputs {
			next, _, _, err := sys.Apply(cfg, in)
			if err != nil {
				continue
			}
			if _, ok := seen[next.Key()]; !ok {
				seen[next.Key()] = next
				frontier = append(frontier, next)
			}
		}
	}
	return seen
}

// Distinguish finds a shortest sequence over the given inputs whose
// observation sequences under the two variants differ, exercising no
// avoided transition in either variant's prediction: breadth-first over
// pairs of global configurations, the two sides running possibly different
// (mutated) transition relations. Restricting the inputs supports
// unsynchronized ports, where only single-port sequences behave
// deterministically.
//
// With projected set, only a difference visible under distributed
// observation counts: one at which at least one side emits a real
// (non-silent) output. Such a difference is final for every port map,
// whereas a step where both sides stay silent (e.g. ε at different ports) is
// invisible to every local observer however the machines are grouped — the
// distinguishing problem of van den Bos & Vaandrager's distributed
// state-identification setting, specialized to synchronized inputs. The
// search then explores through silence-only differences, and globalOnly
// reports that one was seen: callers surface "locally ambiguous" instead of
// conflating it with "equivalent".
//
// ok is false when the variants are equivalent under the constraints, have
// different machine counts, or the search exceeds its exploration limit.
func Distinguish(a, b Variant, inputs []cfsm.Input, avoid cfsm.RefSet, projected bool) (seq []cfsm.Input, ok, globalOnly bool) {
	if a.Sys.N() != b.Sys.N() {
		return nil, false, false
	}
	type node struct {
		ca, cb cfsm.Config
		path   []cfsm.Input
	}
	key := func(ca, cb cfsm.Config) string { return ca.Key() + "||" + cb.Key() }
	seen := map[string]bool{key(a.Cfg, b.Cfg): true}
	frontier := []node{{ca: a.Cfg, cb: b.Cfg}}
	for len(frontier) > 0 && len(seen) < searchLimit {
		n := frontier[0]
		frontier = frontier[1:]
		for _, in := range inputs {
			nextA, obsA, traceA, errA := a.Sys.Apply(n.ca, in)
			nextB, obsB, traceB, errB := b.Sys.Apply(n.cb, in)
			if errA != nil || errB != nil {
				continue
			}
			if hitsAvoid(avoid, traceA) || hitsAvoid(avoid, traceB) {
				continue
			}
			path := append(append([]cfsm.Input(nil), n.path...), in)
			if obsA != obsB {
				if !projected || !silentObs(obsA) || !silentObs(obsB) {
					return path, true, false
				}
				// A silence-only difference: no observer sees it, but the
				// runs have diverged globally. Keep exploring through it —
				// the divergence may surface as an event difference later.
				globalOnly = true
			}
			k := key(nextA, nextB)
			if seen[k] {
				continue
			}
			seen[k] = true
			frontier = append(frontier, node{ca: nextA, cb: nextB, path: path})
		}
	}
	return nil, false, globalOnly
}

// SystemsEquivalent reports whether two systems started in their initial
// configurations are observationally equivalent: no input sequence
// separates them.
func SystemsEquivalent(a, b *cfsm.System) bool {
	_, distinguishable, _ := Distinguish(
		Variant{Sys: a, Cfg: a.InitialConfig()},
		Variant{Sys: b, Cfg: b.InitialConfig()},
		a.AllInputs(), nil, false,
	)
	return !distinguishable
}
