// Package compiled lowers a validated cfsm.System into a dense, integer-
// indexed representation — interned state and symbol IDs, flat transition
// tables, global configurations as vectors of state IDs — and runs every
// search in production against it: the Steps 1–5B analysis with hypothesis
// verification under any observation relation (Analyze, Explains,
// StatOut), the detection matrix (Detects), behavioural variants, the Step-6
// transfer/distinguishing searches (whole input universe or one port), the
// transition tour (Tour) and the reachability pass of specification
// analysis (Reach).
//
// The string-keyed cfsm.System stays the construction, validation and
// reporting layer; a Program is a read-only view of one. Single-fault
// hypotheses are realized as one-cell table overlays (Overlay) instead of
// deep system copies, which removes the clone-and-revalidate cost that
// dominates the interpreted sweep; a validated system of the
// specification's shape with several faults (the multi-fault extension's
// hypotheses) becomes a variant with its own copy of the transition table
// (Engine.VariantOf). internal/core runs every diagnosis on an Engine, which
// accepts every validated system whatever the size of its configuration
// space; its contract is byte-for-byte verdict equality with core's
// interpreted reference engine, pinned by the differential tests in core, by
// the suite-generation parity tests in testgen and by the search-parity
// tests in this package against the interpreted searches of
// internal/refsearch.
//
// The package also defines the versioned binary on-disk codec for systems
// (codec.go) used by `cfsmdiag convert`/`cfsmdiag info` and the server's
// content-addressed model registry.
package compiled

import (
	"fmt"
	"math"
	"math/bits"
	"sort"

	"cfsmdiag/internal/cfsm"
)

// Trans is one transition in compiled form. All fields are dense IDs:
// From/To index the owning machine's sorted state list, Input/Output index
// the program's global symbol table, Dest is the receiving machine index or
// -1 for the environment (external output). What no step reads, the name
// and the output-fault hypothesis space, lives in the Program's parallel
// per-transition slices, so a cell is 24 bytes.
type Trans struct {
	Machine int32
	From    int32
	Input   int32
	Output  int32
	To      int32
	Dest    int32
}

// Internal reports whether the transition delivers its output to a peer.
func (t Trans) Internal() bool { return t.Dest >= 0 }

// machineProg is the compiled form of one machine.
type machineProg struct {
	name      string
	states    []cfsm.State // sorted, ID = index
	stateID   map[cfsm.State]int32
	initial   int32
	numStates int32
	// lookup maps state*numSyms+symbol to transition index+1 (0 = no
	// transition defined), the dense replacement for Machine.Lookup.
	lookup []int32
}

// stim is one element of the compiled external-input universe, in
// cfsm.System.AllInputs order.
type stim struct {
	port int32
	sym  int32
}

// Program is the compiled, immutable form of a system. A Program may be
// shared by any number of goroutines; all mutable execution state lives in
// Runner and Engine instances.
type Program struct {
	src      *cfsm.System
	syms     []cfsm.Symbol // sorted, ID = index
	symID    map[cfsm.Symbol]int32
	nullID   int32
	epsID    int32
	machines []machineProg
	trans    []Trans
	// names[i] is transition i's name, and altOuts[altOff[i]:altOff[i+1]]
	// its output-fault hypothesis space (cfsm.System.AlternativeOutputs) as
	// sorted symbol IDs.
	names   []string
	altOff  []int32
	altOuts []int32
	refIdx  map[cfsm.Ref]int32
	inputs  []stim // cfsm.System.AllInputs order
	// portInputs[k] is the index in inputs of port k's first input, with a
	// final entry len(inputs): AllInputs is port-major, so port k's inputs
	// are inputs[portInputs[k]:portInputs[k+1]].
	portInputs []int32

	// Mixed-radix index of a global configuration, or of a pair of them: the
	// sum of state ID times stride per machine, the second configuration of
	// a pair weighted by configs. The searches use it for their dense
	// visited array, which they only choose when the index space is small,
	// so strides past an overflow are never read.
	strides []uint64
	configs uint64  // global configurations, saturating at math.MaxUint64
	start   []int32 // the initial configuration, one state ID per machine
	// keyWidth is the number of bytes per state ID in a visited-map key:
	// the fewest that hold every machine's largest state ID.
	keyWidth int
}

// Compile lowers a validated system.
func Compile(sys *cfsm.System) (*Program, error) {
	if sys == nil {
		return nil, fmt.Errorf("compiled: nil system")
	}
	nt := sys.NumTransitions()
	p := &Program{
		src:    sys,
		trans:  make([]Trans, 0, nt),
		names:  make([]string, 0, nt),
		altOff: make([]int32, 1, nt+1),
		refIdx: make(map[cfsm.Ref]int32, nt),
	}

	// Intern every symbol appearing in the system plus the reserved Null and
	// Epsilon, in sorted order so symbol-ID order equals string order.
	symSet := map[cfsm.Symbol]bool{cfsm.Null: true, cfsm.Epsilon: true}
	for _, m := range sys.Machines() {
		for _, t := range m.Transitions() {
			symSet[t.Input] = true
			symSet[t.Output] = true
		}
	}
	p.syms = make([]cfsm.Symbol, 0, len(symSet))
	for s := range symSet {
		p.syms = append(p.syms, s)
	}
	sort.Slice(p.syms, func(i, j int) bool { return p.syms[i] < p.syms[j] })
	p.symID = make(map[cfsm.Symbol]int32, len(p.syms))
	for i, s := range p.syms {
		p.symID[s] = int32(i)
	}
	p.nullID = p.symID[cfsm.Null]
	p.epsID = p.symID[cfsm.Epsilon]
	numSyms := int32(len(p.syms))

	// Machines: states are already sorted by construction (Machine.States),
	// so state-ID order equals string order per machine.
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		states := m.States()
		mp := machineProg{
			name:      m.Name(),
			states:    states,
			stateID:   make(map[cfsm.State]int32, len(states)),
			numStates: int32(len(states)),
		}
		for si, s := range states {
			mp.stateID[s] = int32(si)
		}
		mp.initial = mp.stateID[m.Initial()]
		mp.lookup = make([]int32, int(mp.numStates)*int(numSyms))
		p.machines = append(p.machines, mp)
	}

	// Transitions in cfsm.System.Refs order: machine index, then (From,
	// Input) — the canonical enumeration order everywhere else. The output-
	// fault pools (OEO_i, OIO_{i>j}) are per machine and destination, not per
	// transition, so each is interned once; symbol-ID order is string order,
	// so the pools stay sorted.
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		mp := &p.machines[i]
		oeo := p.symIDs(sys.OEO(i))
		oio := make(map[int][]int32)
		for _, t := range m.Transitions() {
			ref := cfsm.Ref{Machine: i, Name: t.Name}
			ct := Trans{
				Machine: int32(i),
				From:    mp.stateID[t.From],
				Input:   p.symID[t.Input],
				Output:  p.symID[t.Output],
				To:      mp.stateID[t.To],
				Dest:    int32(t.Dest),
			}
			pool := oeo
			if t.Internal() {
				var ok bool
				if pool, ok = oio[t.Dest]; !ok {
					pool = p.symIDs(sys.OIO(i, t.Dest))
					oio[t.Dest] = pool
				}
			}
			for _, o := range pool {
				if o != ct.Output {
					p.altOuts = append(p.altOuts, o)
				}
			}
			idx := int32(len(p.trans))
			p.trans = append(p.trans, ct)
			p.names = append(p.names, t.Name)
			p.altOff = append(p.altOff, int32(len(p.altOuts)))
			p.refIdx[ref] = idx
			mp.lookup[int(ct.From)*int(numSyms)+int(ct.Input)] = idx + 1
		}
	}

	// External-input universe, in AllInputs order: each port's input
	// alphabet in turn.
	p.portInputs = make([]int32, 1, sys.N()+1)
	for port := 0; port < sys.N(); port++ {
		for _, sym := range sys.Inputs(port) {
			p.inputs = append(p.inputs, stim{port: int32(port), sym: p.symID[sym]})
		}
		p.portInputs = append(p.portInputs, int32(len(p.inputs)))
	}

	// Configuration indexing.
	n := sys.N()
	p.strides = make([]uint64, 2*n)
	stride := uint64(1)
	maxStates := int32(0)
	for i := range p.machines {
		p.start = append(p.start, p.machines[i].initial)
		p.strides[i] = stride
		stride *= uint64(p.machines[i].numStates)
		maxStates = max(maxStates, p.machines[i].numStates)
	}
	p.configs, _ = p.Configs()
	for i := 0; i < n; i++ {
		p.strides[n+i] = p.strides[i] * p.configs
	}
	switch {
	case maxStates <= 1<<8:
		p.keyWidth = 1
	case maxStates <= 1<<16:
		p.keyWidth = 2
	default:
		p.keyWidth = 4
	}
	return p, nil
}

// symIDs interns a list of symbols.
func (p *Program) symIDs(syms []cfsm.Symbol) []int32 {
	ids := make([]int32, len(syms))
	for i, s := range syms {
		ids[i] = p.symID[s]
	}
	return ids
}

// System returns the source system the program was compiled from.
func (p *Program) System() *cfsm.System { return p.src }

// N returns the number of machines.
func (p *Program) N() int { return len(p.machines) }

// NumSymbols returns the size of the interned symbol table (reserved symbols
// included).
func (p *Program) NumSymbols() int { return len(p.syms) }

// Configs returns the exact number of global configurations (the product of
// the machines' state counts). ok is false when that number exceeds
// math.MaxUint64; n is then math.MaxUint64.
func (p *Program) Configs() (n uint64, ok bool) {
	n = 1
	for i := range p.machines {
		hi, lo := bits.Mul64(n, uint64(p.machines[i].numStates))
		if hi != 0 {
			return math.MaxUint64, false
		}
		n = lo
	}
	return n, true
}

// alts returns the output-fault hypothesis space of transition idx.
func (p *Program) alts(idx int32) []int32 { return p.altOuts[p.altOff[idx]:p.altOff[idx+1]] }

// Ref returns the compiled transition's global reference.
func (p *Program) Ref(idx int32) cfsm.Ref {
	return cfsm.Ref{Machine: int(p.trans[idx].Machine), Name: p.names[idx]}
}

// Symbol decodes a symbol ID; out-of-range IDs decode to Epsilon, which only
// arises for the unknown-observation sentinel.
func (p *Program) Symbol(id int32) cfsm.Symbol {
	if id < 0 || int(id) >= len(p.syms) {
		return cfsm.Epsilon
	}
	return p.syms[id]
}

// index is the mixed-radix index of a configuration or a pair of them, valid
// only when the index space fits in a uint64.
func (p *Program) index(cfg []int32) uint64 {
	var k uint64
	for i, s := range cfg {
		k += uint64(s) * p.strides[i]
	}
	return k
}

// appendKey appends the visited-map key of a configuration vector — each
// state ID in keyWidth little-endian bytes — to dst.
func (p *Program) appendKey(dst []byte, cfg []int32) []byte {
	for _, s := range cfg {
		for b := 0; b < p.keyWidth; b++ {
			dst = append(dst, byte(s>>(8*b)))
		}
	}
	return dst
}

// decodeInputs converts a compiled input-universe index to the external
// stimulus it denotes.
func (p *Program) decodeInput(i int32) cfsm.Input {
	s := p.inputs[i]
	return cfsm.Input{Port: int(s.port), Sym: p.syms[s.sym]}
}
