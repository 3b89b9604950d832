package async

import (
	"fmt"
	"strconv"
	"strings"

	"cfsmdiag/internal/cfsm"
)

// The queued semantics drops the synchronization assumption entirely: an
// internal output is not consumed immediately by the receiver but placed in
// the receiver's input queue (q_{j<i} of Section 2.1), and its delivery is a
// separate event racing with the testers' inputs and with deliveries from
// other queues. This is the full message-passing nondeterminism of the CFSM
// model; the atomic semantics of Outcomes is its special case in which every
// queue is drained immediately.
//
// Queue discipline is FIFO per ordered machine pair. A delivery that finds
// no transition (undefined reception) is observed as ε at the receiver's
// port, matching the synchronized semantics. Receptions that would forward
// internally are impossible for validated systems (the internal-chain
// restriction); they surface as errors.

// queuedState is one exploration node: machine states, per-pair FIFO
// queues, per-port script positions and the output streams so far.
type queuedState struct {
	cfg     cfsm.Config
	queues  map[uint32][]cfsm.Symbol // keyed by queueKey(i, j)
	pos     []int
	streams [][]cfsm.Symbol
}

// queueKey packs the ordered machine pair (from, to) into one integer, so
// the hot exploration loop indexes its queue map without formatting (and
// without allocating) a string key per probe. Machine counts are far below
// 1<<16.
func queueKey(from, to int) uint32 { return uint32(from)<<16 | uint32(to) }

func (s queuedState) encode() string {
	var b strings.Builder
	b.WriteString(s.cfg.Key())
	b.WriteByte('#')
	// Deterministic queue ordering.
	for i := 0; i < len(s.pos); i++ {
		for j := 0; j < len(s.pos); j++ {
			if q := s.queues[queueKey(i, j)]; len(q) > 0 {
				b.WriteByte('q')
				b.WriteString(strconv.Itoa(i))
				b.WriteByte('>')
				b.WriteString(strconv.Itoa(j))
				b.WriteByte(':')
				for _, m := range q {
					b.WriteString(string(m))
					b.WriteByte(',')
				}
			}
		}
	}
	b.WriteByte('#')
	for _, p := range s.pos {
		b.WriteString(strconv.Itoa(p))
		b.WriteByte('.')
	}
	b.WriteByte('#')
	b.WriteString(Outcome{Streams: s.streams}.Key())
	return b.String()
}

func (s queuedState) clone() queuedState {
	out := queuedState{
		cfg:     s.cfg.Clone(),
		queues:  make(map[uint32][]cfsm.Symbol, len(s.queues)),
		pos:     append([]int(nil), s.pos...),
		streams: make([][]cfsm.Symbol, len(s.streams)),
	}
	for k, q := range s.queues {
		out.queues[k] = append([]cfsm.Symbol(nil), q...)
	}
	for i, st := range s.streams {
		out.streams[i] = append([]cfsm.Symbol(nil), st...)
	}
	return out
}

// OutcomesQueued enumerates every outcome the system admits for the script
// under the queued (fully asynchronous) semantics. The result is a superset
// of Outcomes' atomic semantics whenever queue deliveries can race.
func OutcomesQueued(sys *cfsm.System, script Script) (OutcomeSet, error) {
	if len(script.Inputs) != sys.N() {
		return nil, fmt.Errorf("async: script has %d ports for %d machines", len(script.Inputs), sys.N())
	}
	outcomes := make(OutcomeSet)
	visited := make(map[string]bool)
	steps := 0

	start := queuedState{
		cfg:     sys.InitialConfig(),
		queues:  map[uint32][]cfsm.Symbol{},
		pos:     make([]int, sys.N()),
		streams: make([][]cfsm.Symbol, sys.N()),
	}
	visited[start.encode()] = true
	stack := []queuedState{start}

	// step applies one local transition of machine m on input sym: the
	// output either goes to m's stream (external) or is enqueued.
	step := func(s *queuedState, m int, sym cfsm.Symbol) error {
		t, ok := sys.Machine(m).Lookup(s.cfg[m], sym)
		if !ok {
			s.streams[m] = append(s.streams[m], cfsm.Epsilon)
			return nil
		}
		s.cfg[m] = t.To
		if !t.Internal() {
			s.streams[m] = append(s.streams[m], t.Output)
			return nil
		}
		k := queueKey(m, t.Dest)
		s.queues[k] = append(s.queues[k], t.Output)
		return nil
	}

	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]

		progressed := false
		// Event class 1: apply the next script input at some port.
		for port := 0; port < sys.N(); port++ {
			if s.pos[port] >= len(script.Inputs[port]) {
				continue
			}
			progressed = true
			steps++
			if steps > exploreLimit {
				return nil, fmt.Errorf("async: queued exploration exceeded %d steps", exploreLimit)
			}
			n := s.clone()
			n.pos[port]++
			if err := step(&n, port, script.Inputs[port][s.pos[port]]); err != nil {
				return nil, err
			}
			if key := n.encode(); !visited[key] {
				visited[key] = true
				stack = append(stack, n)
			}
		}
		// Event class 2: deliver the head of some non-empty queue.
		for from := 0; from < sys.N(); from++ {
			for to := 0; to < sys.N(); to++ {
				q := s.queues[queueKey(from, to)]
				if len(q) == 0 {
					continue
				}
				progressed = true
				steps++
				if steps > exploreLimit {
					return nil, fmt.Errorf("async: queued exploration exceeded %d steps", exploreLimit)
				}
				n := s.clone()
				k := queueKey(from, to)
				msg := n.queues[k][0]
				n.queues[k] = n.queues[k][1:]
				if len(n.queues[k]) == 0 {
					delete(n.queues, k)
				}
				t, ok := sys.Machine(to).Lookup(n.cfg[to], msg)
				switch {
				case !ok:
					n.streams[to] = append(n.streams[to], cfsm.Epsilon)
				case t.Internal():
					return nil, fmt.Errorf("%w: delivery of %q to %s", cfsm.ErrChainedInternal, msg, sys.Machine(to).Name())
				default:
					n.cfg[to] = t.To
					n.streams[to] = append(n.streams[to], t.Output)
				}
				if key := n.encode(); !visited[key] {
					visited[key] = true
					stack = append(stack, n)
				}
			}
		}
		if !progressed {
			o := Outcome{Streams: s.streams}
			outcomes[o.Key()] = o
		}
	}
	return outcomes, nil
}
