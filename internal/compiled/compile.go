// Package compiled lowers a validated cfsm.System into a dense, integer-
// indexed representation — interned state and symbol IDs, flat transition
// tables, packed global configurations — and executes the diagnosis hot
// paths against it: test-suite replay (Explains), behavioural variants, and
// the Step-6 transfer/distinguishing searches.
//
// The string-keyed cfsm.System stays the construction, validation and
// reporting layer; a Program is a read-only view of one. Fault hypotheses
// are realized as one-cell table overlays (Overlay) instead of deep system
// copies, which removes the clone-and-revalidate cost that dominates the
// interpreted sweep. internal/core runs every diagnosis of a packable
// specification on an Engine; its contract is byte-for-byte verdict
// equality with core's interpreted reference engine, pinned by the
// differential tests in this package.
//
// The package also defines the versioned binary on-disk codec for systems
// (codec.go) used by `cfsmdiag convert`/`cfsmdiag info` and the server's
// content-addressed model registry.
package compiled

import (
	"fmt"
	"math"
	"sort"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/testgen"
)

// Trans is one transition in compiled form. All fields are dense IDs:
// From/To index the owning machine's sorted state list, Input/Output index
// the program's global symbol table, Dest is the receiving machine index or
// -1 for the environment (external output).
type Trans struct {
	Machine int32
	From    int32
	Input   int32
	Output  int32
	To      int32
	Dest    int32
	Name    string
	// altOuts is the transition's output-fault hypothesis space
	// (cfsm.System.AlternativeOutputs) as sorted symbol IDs.
	altOuts []int32
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
// testgen.AllInputs order.
type stim struct {
	port int32
	sym  int32
}

// maxPackedConfigs bounds the packed global state space: Engine searches key
// pairs of configurations into a single uint64, which needs each packed
// configuration to fit in 31 bits.
const maxPackedConfigs = uint64(1) << 31

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
	refIdx   map[cfsm.Ref]int32
	inputs   []stim // testgen.AllInputs order

	// Mixed-radix packing of global configurations: packed(cfg) equals the
	// sum of state-ID times stride per machine.
	strides  []uint64
	configs  uint64 // total packed configurations; 0 when not packable
	initialP uint64
}

// Compile lowers a validated system. The resulting Program supports running
// and overlays unconditionally; the packed-configuration searches (Engine)
// additionally require the global state space to fit maxPackedConfigs —
// see Packable.
func Compile(sys *cfsm.System) (*Program, error) {
	if sys == nil {
		return nil, fmt.Errorf("compiled: nil system")
	}
	p := &Program{src: sys, refIdx: make(map[cfsm.Ref]int32)}

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
	// Input) — the canonical enumeration order everywhere else.
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		mp := &p.machines[i]
		for _, t := range m.Transitions() {
			ref := cfsm.Ref{Machine: i, Name: t.Name}
			ct := Trans{
				Machine: int32(i),
				From:    mp.stateID[t.From],
				Input:   p.symID[t.Input],
				Output:  p.symID[t.Output],
				To:      mp.stateID[t.To],
				Dest:    int32(t.Dest),
				Name:    t.Name,
			}
			for _, o := range sys.AlternativeOutputs(ref) {
				ct.altOuts = append(ct.altOuts, p.symID[o])
			}
			idx := int32(len(p.trans))
			p.trans = append(p.trans, ct)
			p.refIdx[ref] = idx
			mp.lookup[int(ct.From)*int(numSyms)+int(ct.Input)] = idx + 1
		}
	}

	// External-input universe, exactly testgen.AllInputs order.
	for _, in := range testgen.AllInputs(sys) {
		p.inputs = append(p.inputs, stim{port: int32(in.Port), sym: p.symID[in.Sym]})
	}

	// Configuration packing.
	p.strides = make([]uint64, sys.N())
	total := uint64(1)
	packable := true
	for i := range p.machines {
		p.strides[i] = total
		n := uint64(p.machines[i].numStates)
		if total > math.MaxUint64/n {
			packable = false
			break
		}
		total *= n
	}
	if packable && total <= maxPackedConfigs {
		p.configs = total
		p.initialP = 0
		for i := range p.machines {
			p.initialP += uint64(p.machines[i].initial) * p.strides[i]
		}
	}
	return p, nil
}

// System returns the source system the program was compiled from.
func (p *Program) System() *cfsm.System { return p.src }

// N returns the number of machines.
func (p *Program) N() int { return len(p.machines) }

// NumTransitions returns the number of compiled transitions.
func (p *Program) NumTransitions() int { return len(p.trans) }

// NumSymbols returns the size of the interned symbol table (reserved symbols
// included).
func (p *Program) NumSymbols() int { return len(p.syms) }

// Configs returns the size of the packed global configuration space, or 0
// when the space exceeds the packable bound.
func (p *Program) Configs() uint64 { return p.configs }

// Packable reports whether the global configuration space packs into the
// integer keys the Engine searches require.
func (p *Program) Packable() bool { return p.configs > 0 }

// Ref returns the compiled transition's global reference.
func (p *Program) Ref(idx int32) cfsm.Ref {
	return cfsm.Ref{Machine: int(p.trans[idx].Machine), Name: p.trans[idx].Name}
}

// Symbol decodes a symbol ID; out-of-range IDs decode to Epsilon, which only
// arises for the unknown-observation sentinel.
func (p *Program) Symbol(id int32) cfsm.Symbol {
	if id < 0 || int(id) >= len(p.syms) {
		return cfsm.Epsilon
	}
	return p.syms[id]
}

// pack encodes an unpacked configuration (state IDs per machine).
func (p *Program) pack(cfg []int32) uint64 {
	var k uint64
	for i, s := range cfg {
		k += uint64(s) * p.strides[i]
	}
	return k
}

// unpack decodes a packed configuration into dst (len = number of machines).
func (p *Program) unpack(k uint64, dst []int32) {
	for i := range p.machines {
		dst[i] = int32(k / p.strides[i] % uint64(p.machines[i].numStates))
	}
}

// decodeInputs converts a compiled input-universe index to the external
// stimulus it denotes.
func (p *Program) decodeInput(i int32) cfsm.Input {
	s := p.inputs[i]
	return cfsm.Input{Port: int(s.port), Sym: p.syms[s.sym]}
}
