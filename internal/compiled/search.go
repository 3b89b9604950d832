package compiled

import (
	"math"
	"math/bits"

	"cfsmdiag/internal/cfsm"
)

// searchLimit bounds the number of configurations (or configuration pairs)
// a search may visit, and must equal the limit of the interpreted reference
// searches (internal/refsearch) for parity.
const searchLimit = 200_000

// stampThreshold is the largest key space (configurations, or pairs of
// them) for which the searches use an epoch-stamped dense visited array,
// indexed mixed-radix, instead of a hash map. 1<<20 entries is 4 MiB,
// allocated once per engine and reused across searches.
const stampThreshold = uint64(1) << 20

// search holds the engine's reusable search scratch: the node arena (the BFS
// frontier is the arena itself, walked by an index) with each node's
// configuration vector — n state IDs, or 2n for a pair — and the visited
// structure.
type search struct {
	cur   []int32 // per-input working vector, one node's width
	vecs  []int32 // arena of node vectors
	nodes []snode

	dense bool     // visited is the stamp array, else the map
	stamp []uint32 // dense visited array (epoch-stamped)
	epoch uint32
	seen  map[string]struct{} // visited vectors, keyed by appendKey
	key   []byte
}

// snode is one search node: the parent arena index and the input-universe
// index that reached it. Its vector is the i-th len(cur) ints of vecs.
type snode struct {
	parent int32
	in     int32
}

func (e *Engine) initSearch(pair bool) *search {
	p := e.p
	s := &e.searchBuf
	width := len(p.machines)
	space := p.configs
	if pair {
		width *= 2
		space = satMul(space, space)
	}
	if cap(s.cur) < width {
		s.cur = make([]int32, width)
	}
	s.cur = s.cur[:width]
	s.vecs = s.vecs[:0]
	s.nodes = s.nodes[:0]
	s.dense = space <= stampThreshold
	if s.dense {
		if uint64(len(s.stamp)) < space {
			s.stamp = make([]uint32, space)
		}
		s.epoch++
		if s.epoch == 0 {
			clear(s.stamp)
			s.epoch = 1
		}
	} else if s.seen == nil {
		s.seen = make(map[string]struct{}, 1024)
	} else {
		clear(s.seen)
	}
	return s
}

// satMul returns a·b, saturating at math.MaxUint64.
func satMul(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	if hi != 0 {
		return math.MaxUint64
	}
	return lo
}

// visit marks the vector (a configuration, or a pair of them) as seen and
// reports whether it was already seen.
func (s *search) visit(p *Program, v []int32) bool {
	if s.dense {
		k := p.index(v)
		if s.stamp[k] == s.epoch {
			return true
		}
		s.stamp[k] = s.epoch
		return false
	}
	s.key = p.appendKey(s.key[:0], v)
	if _, ok := s.seen[string(s.key)]; ok {
		return true
	}
	s.seen[string(s.key)] = struct{}{}
	return false
}

// push appends a node reached from parent by input in, with vector v.
func (s *search) push(parent, in int32, v []int32) {
	s.nodes = append(s.nodes, snode{parent: parent, in: in})
	s.vecs = append(s.vecs, v...)
}

// vec returns arena node i's vector. Later pushes may move the arena, but
// never write an existing entry, so the slice stays valid and unchanged.
func (s *search) vec(i int) []int32 {
	w := len(s.cur)
	return s.vecs[i*w : (i+1)*w : (i+1)*w]
}

// avoidMask lowers an avoid set to a per-transition mask; refs outside the
// program match nothing, as under the interpreted hitsAvoid.
func (e *Engine) avoidMask(avoid cfsm.RefSet) []bool {
	if len(avoid) == 0 {
		return nil
	}
	mask := make([]bool, len(e.p.trans))
	for r := range avoid {
		if idx, ok := e.p.refIdx[r]; ok {
			mask[idx] = true
		}
	}
	return mask
}

func hitsMask(mask []bool, e1, e2 int32) bool {
	if mask == nil {
		return false
	}
	if e1 >= 0 && mask[e1] {
		return true
	}
	return e2 >= 0 && mask[e2]
}

// path reconstructs the input sequence reaching arena node i, in order.
func (e *Engine) path(s *search, i int32, last int32) []cfsm.Input {
	depth := 1
	for n := i; n >= 0; n = s.nodes[n].parent {
		if s.nodes[n].in >= 0 {
			depth++
		}
	}
	out := make([]cfsm.Input, depth)
	out[depth-1] = e.p.decodeInput(last)
	k := depth - 2
	for n := i; n >= 0 && k >= 0; n = s.nodes[n].parent {
		out[k] = e.p.decodeInput(s.nodes[n].in)
		k--
	}
	return out
}

// goal is what transferSearch looks for. With covered nil it is a
// configuration with the machine in state; a state of -1 (undeclared) is
// never reached. With covered set it is a step that fires a transition
// outside covered: the next step of the transition tour.
type goal struct {
	machine int
	state   int32
	covered Bits
}

// reached reports whether the step that fired e1 and e2 (e1 >= 0) into
// configuration cfg reaches the goal.
func (g *goal) reached(cfg []int32, e1, e2 int32) bool {
	if g.covered == nil {
		return g.state >= 0 && cfg[g.machine] == g.state
	}
	return !g.covered.Has(e1) || e2 >= 0 && !g.covered.Has(e2)
}

// transferSearch finds a shortest input sequence from configuration from to
// the goal: breadth-first over the specification's configurations, skipping
// no-progress inputs and avoided transitions, in the order of the
// interpreted reference TransferToState (state goal) and NextUncovered
// (covered goal). The goal test precedes the visited test; for a state goal
// that is immaterial, since a visited goal configuration ends the search.
func (e *Engine) transferSearch(from []int32, g goal, avoid cfsm.RefSet) ([]cfsm.Input, bool) {
	p := e.p
	s := e.initSearch(false)
	mask := e.avoidMask(avoid)
	var steps int64
	defer func() { cfsm.RecordSimulated(steps, 0) }()

	cur := s.cur
	copy(cur, from)
	if g.covered == nil && g.reached(cur, -1, -1) {
		return nil, true
	}
	s.visit(p, cur)
	seenCount := 1
	s.push(-1, -1, cur)
	for head := 0; head < len(s.nodes) && seenCount < searchLimit; head++ {
		node := s.vec(head)
		for ii := range p.inputs {
			copy(cur, node)
			steps++
			_, e1, e2, ok := p.stepCfg(cur, None(), p.inputs[ii])
			if !ok || e1 < 0 {
				continue // undefined input: no progress
			}
			if hitsMask(mask, e1, e2) {
				continue
			}
			if g.reached(cur, e1, e2) {
				return e.path(s, int32(head), int32(ii)), true
			}
			if s.visit(p, cur) {
				continue
			}
			seenCount++
			s.push(int32(head), int32(ii), cur)
		}
	}
	return nil, false
}

// distinguishSearch is the pair search: breadth-first over pairs of
// configurations, each side stepping on its own variant's table and
// overlay, over the inputs[lo:hi] of the input universe, returning the first
// input sequence whose observations differ (checked before the visited
// test), in the interpreted reference Distinguish's order. With projected
// set, a difference where both sides stay silent (ε or Null) is invisible to
// every local observer, so it only sets globalOnly and the search explores
// through it.
func (e *Engine) distinguishSearch(a Variant, ca []int32, b Variant, cb []int32, avoid cfsm.RefSet, projected bool, lo, hi int32) (seq []cfsm.Input, ok, globalOnly bool) {
	p, pa, pb := e.p, a.p, b.p
	s := e.initSearch(true)
	mask := e.avoidMask(avoid)
	var steps int64
	defer func() { cfsm.RecordSimulated(steps, 0) }()

	n := len(p.machines)
	cur := s.cur
	curA, curB := cur[:n], cur[n:]
	copy(curA, ca)
	copy(curB, cb)
	s.visit(p, cur)
	seenCount := 1
	s.push(-1, -1, cur)
	for head := 0; head < len(s.nodes) && seenCount < searchLimit; head++ {
		node := s.vec(head)
		for ii := lo; ii < hi; ii++ {
			copy(cur, node)
			steps += 2
			oA, a1, a2, okA := pa.stepCfg(curA, a.ov, p.inputs[ii])
			oB, b1, b2, okB := pb.stepCfg(curB, b.ov, p.inputs[ii])
			if !okA || !okB {
				continue
			}
			if hitsMask(mask, a1, a2) || hitsMask(mask, b1, b2) {
				continue
			}
			if oA != oB {
				if !projected || !p.silent(oA) || !p.silent(oB) {
					return e.path(s, int32(head), ii), true, false
				}
				globalOnly = true
			}
			if s.visit(p, cur) {
				continue
			}
			seenCount++
			s.push(int32(head), ii, cur)
		}
	}
	return nil, false, globalOnly
}

// silent reports an observation no local observer records: ε or the Null
// reset output (ports.Silent on the compiled form).
func (p *Program) silent(o cobs) bool { return o.sym == p.epsID || o.sym == p.nullID }

// Reachability is what one forward pass over the specification's
// configuration graph establishes (Program.Reach).
type Reachability struct {
	// Configs counts the configurations discovered.
	Configs int
	// Truncated reports that the pass stopped at the search limit: Configs
	// then counts only the configurations discovered so far.
	Truncated bool
	// Unexecutable lists, in Refs order, the transitions no discovered
	// configuration can fire.
	Unexecutable []cfsm.Ref
	// StronglyConnected reports that every reachable configuration reaches
	// every other without the reset. A truncated pass cannot decide it and
	// leaves it false.
	StronglyConnected bool
}

// Reach explores the configurations reachable from the initial one,
// breadth-first over every input up to the search limit — discovering
// exactly the configurations of the interpreted reference ReachableConfigs —
// and collects the transitions each discovered configuration fires. A
// complete pass also decides strong connectivity: every configuration is
// reachable from the initial one, so the graph is strongly connected iff
// every configuration reaches the initial one back, which one reverse pass
// over the recorded predecessor edges answers.
func (p *Program) Reach() Reachability {
	n := len(p.machines)
	index := map[string]int32{string(p.appendKey(nil, p.start)): 0}
	vecs := append([]int32(nil), p.start...)
	preds := [][]int32{nil} // preds[j]: expanded configurations with an edge to j
	fired := NewBits(len(p.trans))
	cur := make([]int32, n)
	var key []byte
	truncated := false
	var steps int64
	for head := 0; head < len(preds); head++ {
		// Past the limit the remaining discovered configurations are no
		// longer expanded, but still probed for the transitions they fire,
		// until every transition has fired.
		grow := len(preds) < searchLimit
		if !grow {
			truncated = true
			if fired.Count() == len(p.trans) {
				break
			}
		}
		node := vecs[head*n : (head+1)*n]
		for ii := range p.inputs {
			copy(cur, node)
			steps++
			_, e1, e2, ok := p.stepCfg(cur, None(), p.inputs[ii])
			if !ok || e1 < 0 {
				continue // undefined input: a self-loop
			}
			for _, t := range [2]int32{e1, e2} {
				if t >= 0 {
					fired.Set(t)
				}
			}
			if !grow {
				continue
			}
			key = p.appendKey(key[:0], cur)
			j, seen := index[string(key)]
			if !seen {
				j = int32(len(preds))
				index[string(key)] = j
				vecs = append(vecs, cur...)
				preds = append(preds, nil)
			}
			preds[j] = append(preds[j], int32(head))
		}
	}
	cfsm.RecordSimulated(steps, 0)

	r := Reachability{Configs: len(preds), Truncated: truncated}
	for t := range p.trans {
		if !fired.Has(int32(t)) {
			r.Unexecutable = append(r.Unexecutable, p.Ref(int32(t)))
		}
	}
	if truncated {
		return r
	}
	back := NewBits(len(preds))
	back.Set(0)
	reached := 1
	for stack := []int32{0}; len(stack) > 0; {
		j := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, i := range preds[j] {
			if !back.Has(i) {
				back.Set(i)
				reached++
				stack = append(stack, i)
			}
		}
	}
	r.StronglyConnected = reached == len(preds)
	return r
}
