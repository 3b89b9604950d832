package ports

import (
	"fmt"
	"math"
	"math/bits"

	"cfsmdiag/internal/cfsm"
)

// MatchResult is the outcome of matching a projection against the
// specification's expected sequence for one test case.
type MatchResult struct {
	// L is the maximal consistent prefix: the largest j such that some
	// global sequence consistent with the projection starts with
	// expected[:j]. When L equals the sequence length the projection is
	// explained by the specification and the case shows no symptom.
	L int
	// Full reports L == len(expected): no consistent interleaving
	// contradicts the expectation.
	Full bool
	// Completion is a canonical global sequence consistent with the
	// projection. When Full is false it agrees with the expectation on the
	// first L slots and differs at slot L, so feeding it to core.Analyze
	// places the first symptom exactly at the maximal consistent prefix —
	// the conflict set then covers the union over all consistent
	// interleavings (any other interleaving diverges no later).
	Completion []cfsm.Observation
	// Interleavings counts the global sequences consistent with the
	// projection, saturating at MaxInterleavings.
	Interleavings uint64
	// Ambiguous reports that more than one consistent interleaving exists:
	// the observers' records do not pin down the global order.
	Ambiguous bool
}

// MaxInterleavings caps the interleaving count; real counts above it report
// as exactly this value.
const MaxInterleavings = math.MaxUint64 / 2

// Match computes the maximal prefix of expected that some interleaving
// consistent with the projection reproduces, together with a canonical
// consistent completion diverging exactly there. It runs in O(len(expected))
// — no interleavings are enumerated.
//
// The greedy scan walks the expected sequence slot by slot. Reset slots are
// forced: every consistent interleaving observes Null there. A silent
// expected slot (ε) consumes one unit of the silence budget — the number of
// non-reset slots left over once every observed event is placed. A non-silent
// expected slot must equal the next unconsumed event of its observer's local
// trace. The scan stops at the first slot no consistent interleaving can
// reproduce; a feasibility backtrack then retreats over trailing ε-slots
// whose silence the leftover events still need (only ε-slots can be
// infeasible: matching an event slot consumes exactly the slot it occupies).
func Match(m Map, tc cfsm.TestCase, expected []cfsm.Observation, p Projection) (MatchResult, error) {
	if err := m.validate(tc, p); err != nil {
		return MatchResult{}, err
	}
	if len(tc.Inputs) != len(expected) {
		return MatchResult{}, fmt.Errorf("ports: %d expected observations for %d inputs of %s",
			len(expected), len(tc.Inputs), tc.Name)
	}
	k := len(expected)

	// Per-observer event queues and consumption cursors.
	queues := make(map[string][]cfsm.Observation, len(p))
	next := make(map[string]int, len(p))
	events := 0
	for _, lt := range p {
		queues[lt.Port] = lt.Events
		events += len(lt.Events)
	}

	// resetsFrom[j] counts reset slots in [j, k); the feasibility bound at
	// prefix length j is: leftover events must fit the non-reset slots after
	// j, i.e. events - consumed(j) <= (k - j) - resetsFrom[j].
	resetsFrom := make([]int, k+1)
	for j := k - 1; j >= 0; j-- {
		resetsFrom[j] = resetsFrom[j+1]
		if j < len(tc.Inputs) && tc.Inputs[j].IsReset() {
			resetsFrom[j]++
		}
	}
	epsBudget := (k - resetsFrom[0]) - events

	// Greedy forward scan; consumed[j] records events matched in the first
	// j slots, for the backtrack below.
	consumed := make([]int, k+1)
	raw := k
	for j := 0; j < k; j++ {
		consumed[j+1] = consumed[j]
		in := tc.Inputs[j]
		exp := expected[j]
		switch {
		case in.IsReset():
			// Forced Null in every consistent interleaving; the expectation
			// of a real specification run is always Null here too.
			if exp.Sym != cfsm.Null {
				raw = j
			}
		case Silent(exp):
			if epsBudget == 0 {
				raw = j
			} else {
				epsBudget--
			}
		default:
			port := m.Port(exp.Port)
			q := queues[port]
			if next[port] < len(q) && q[next[port]] == exp {
				next[port]++
				consumed[j+1] = consumed[j] + 1
			} else {
				raw = j
			}
		}
		if raw == j {
			break
		}
	}

	// Feasibility backtrack: the largest j <= raw whose leftover events fit
	// the remaining non-reset slots. Walking down never hurts feasibility,
	// so the first feasible j from raw downward is maximal.
	L := raw
	for L > 0 && events-consumed[L] > (k-L)-resetsFrom[L] {
		L--
	}
	// Rewind the consumption cursors to prefix L.
	for port := range next {
		next[port] = 0
	}
	for j := 0; j < L; j++ {
		exp := expected[j]
		if !tc.Inputs[j].IsReset() && !Silent(exp) {
			next[m.Port(exp.Port)]++
		}
	}

	res := MatchResult{L: L, Full: L == k}
	res.Interleavings = countInterleavings(k-resetsFrom[0], p)
	res.Ambiguous = res.Interleavings > 1
	res.Completion = complete(m, tc, expected, p, L, next)
	return res, nil
}

// complete builds the canonical consistent completion: the expected prefix
// up to L, then — slot by slot — the forced Null at reset slots, the next
// unconsumed event in observer-name order while events remain, and silence
// once they are exhausted. Placing events eagerly guarantees the slot-L
// divergence: if expected[L] is silent, events must remain (that is why the
// prefix stopped), and if expected[L] is an event, the eager head differs
// from it (same-observer conflict or a different observer's event).
func complete(m Map, tc cfsm.TestCase, expected []cfsm.Observation, p Projection, L int, next map[string]int) []cfsm.Observation {
	k := len(expected)
	out := make([]cfsm.Observation, 0, k)
	out = append(out, expected[:L]...)
	for j := L; j < k; j++ {
		in := tc.Inputs[j]
		if in.IsReset() {
			out = append(out, cfsm.Observation{Sym: cfsm.Null, Port: in.Port})
			continue
		}
		placed := false
		for _, lt := range p {
			if next[lt.Port] < len(lt.Events) {
				out = append(out, lt.Events[next[lt.Port]])
				next[lt.Port]++
				placed = true
				break
			}
		}
		if placed {
			continue
		}
		// Silence: reuse the expectation's silent form when it is silent so
		// the synthesized sequence does not manufacture spurious symptoms
		// out of differently annotated ε slots (silence carries no port
		// information for any observer).
		if Silent(expected[j]) {
			out = append(out, expected[j])
		} else {
			out = append(out, cfsm.Observation{Sym: cfsm.Epsilon, Port: in.Port})
		}
	}
	return out
}

// countInterleavings computes the number of global sequences consistent with
// the projection, given the number of non-reset slots: choose which slots
// carry the events, then order the events across observers (each observer's
// own order is fixed). The product saturates at MaxInterleavings.
func countInterleavings(slots int, p Projection) uint64 {
	events := 0
	count := uint64(1)
	// Multinomial: events! / prod(|per-port|!) built incrementally as
	// C(running, len) per port, then times C(slots, events).
	for _, lt := range p {
		for i := 1; i <= len(lt.Events); i++ {
			events++
			count = satMulDiv(count, uint64(events), uint64(i))
		}
	}
	count = satMul(count, binomial(uint64(slots), uint64(events)))
	return count
}

// binomial computes C(n, k), saturating.
func binomial(n, k uint64) uint64 {
	if k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	out := uint64(1)
	for i := uint64(1); i <= k; i++ {
		out = satMulDiv(out, n-k+i, i)
	}
	return out
}

// satMulDiv computes a*b/c with saturation at MaxInterleavings (b/c arrives
// from factorial ratios, so the true product is integral).
func satMulDiv(a, b, c uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi >= c {
		return MaxInterleavings
	}
	q, _ := bits.Div64(hi, lo, c)
	if q > MaxInterleavings {
		return MaxInterleavings
	}
	return q
}

// satMul computes a*b with saturation at MaxInterleavings.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 || lo > MaxInterleavings {
		return MaxInterleavings
	}
	return lo
}
