package ports

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
)

// DefaultClosureLimit bounds the interleavings Closure enumerates per case.
const DefaultClosureLimit = 4096

// ClosureResult is the outcome of a bounded interleaving-closure sweep.
type ClosureResult struct {
	// Refs is the union, over the explored consistent interleavings, of the
	// specification transitions executed up to each interleaving's first
	// divergence from the expectation — the distributed-observation conflict
	// set. Order follows the specification's first execution of each
	// transition.
	Refs []cfsm.Ref
	// Explored counts the consistent interleavings enumerated.
	Explored int
	// Truncated reports that the limit stopped the enumeration before the
	// interleaving set was exhausted; Refs is then a lower bound (Match.L
	// still bounds the closure from above analytically).
	Truncated bool
}

// Closure enumerates the global sequences consistent with the projection —
// depth-first over slot assignments, bounded by limit — and accumulates the
// conflict set of each on a compiled.Bits set: the transitions the
// specification executed up to the interleaving's first visible divergence
// from the expected sequence. It is the reference implementation of the
// union that Match captures analytically (the canonical completion's first
// symptom lands on the maximal consistent prefix, so core.Analyze's conflict
// set equals this union); the differential tests pin the two against each
// other, and the report layer quotes Explored as the interleavings-explored
// metric.
//
// Silent slots compare as equal regardless of their ε annotation: no
// observer can distinguish one silence from another.
func Closure(spec *cfsm.System, m Map, tc cfsm.TestCase, p Projection, limit int) (ClosureResult, error) {
	if limit <= 0 {
		limit = DefaultClosureLimit
	}
	expected, steps, err := spec.RunTrace(tc)
	if err != nil {
		return ClosureResult{}, err
	}
	if err := m.validate(tc, p); err != nil {
		return ClosureResult{}, err
	}

	refs := spec.Refs()
	index := make(map[cfsm.Ref]int32, len(refs))
	for i, r := range refs {
		index[r] = int32(i)
	}
	union := compiled.NewBits(len(refs))
	// prefixBits[j] marks the transitions executed in steps 0..j; the
	// conflict set of an interleaving diverging at slot d is prefixBits[d].
	prefix := make([]compiled.Bits, len(expected))
	acc := compiled.NewBits(len(refs))
	for j := range expected {
		for _, e := range steps[j] {
			acc.Set(index[e.Ref()])
		}
		prefix[j] = compiled.NewBits(len(refs))
		prefix[j].CopyFrom(acc)
	}

	queues := make([][]cfsm.Observation, len(p))
	next := make([]int, len(p))
	for i, lt := range p {
		queues[i] = lt.Events
	}
	portIdx := make(map[string]int, len(p))
	for i, lt := range p {
		portIdx[lt.Port] = i
	}

	res := ClosureResult{}
	k := len(expected)
	// DFS over slots: at each non-reset slot place either silence (if budget
	// remains) or any observer's next event; reset slots are forced Null.
	// diverged tracks the first slot where the interleaving visibly differs
	// from the expectation (-1 while it still agrees).
	var walk func(j, silenceLeft, diverged int)
	walk = func(j, silenceLeft, diverged int) {
		if res.Explored >= limit {
			res.Truncated = true
			return
		}
		if j == k {
			res.Explored++
			if diverged >= 0 {
				union.Or(prefix[diverged])
			}
			return
		}
		in := tc.Inputs[j]
		if in.IsReset() {
			// Forced Null; diverges only if the expectation is not silent
			// there (impossible for a real specification run).
			d := diverged
			if d < 0 && !Silent(expected[j]) {
				d = j
			}
			walk(j+1, silenceLeft, d)
			return
		}
		if silenceLeft > 0 {
			d := diverged
			if d < 0 && !Silent(expected[j]) {
				d = j
			}
			walk(j+1, silenceLeft-1, d)
		}
		for qi := range queues {
			if next[qi] >= len(queues[qi]) {
				continue
			}
			e := queues[qi][next[qi]]
			d := diverged
			if d < 0 && e != expected[j] {
				d = j
			}
			next[qi]++
			walk(j+1, silenceLeft, d)
			next[qi]--
		}
	}
	slots, events := 0, p.Events()
	for _, in := range tc.Inputs {
		if !in.IsReset() {
			slots++
		}
	}
	walk(0, slots-events, -1)

	// Render the union in the specification's first-execution order, the
	// same order the interpreted conflict-set builder uses.
	seen := make(map[cfsm.Ref]bool)
	var ordered []cfsm.Ref
	for j := range steps {
		for _, e := range steps[j] {
			r := e.Ref()
			if !seen[r] && union.Has(index[r]) {
				seen[r] = true
				ordered = append(ordered, r)
			}
		}
	}
	res.Refs = ordered
	return res, nil
}
