// Package ports implements distributed observation for CFSM diagnosis: the
// paper's model has one external port per machine, and this package assigns
// every machine's port to a named local observer. Observers have no shared
// clock, so the diagnoser no longer receives one globally ordered output
// sequence — it receives, per observer, the ordered subsequence of non-silent
// outputs at that observer's machines (the local trace), and must reason over
// every global interleaving consistent with those projections (Hierons,
// "Checking FSM Conformance when there are Distributed Observations").
//
// The model keeps the paper's centralized control: the tester applies the
// global input sequence in a known order (inputs are synchronized), only the
// *observations* are distributed. Silence — an ε observation (undefined input
// or a dropped internal forward) or the Null reset output — is invisible to
// every observer: a local trace records events, not slots.
//
// The key objects:
//
//   - Map assigns machines to named observer ports. The default single-port
//     map declares one global observer and makes the whole layer transparent
//     (the classical pipeline runs unchanged, byte for byte).
//   - Project computes the per-port local traces of a global sequence;
//     Consistent checks a candidate global sequence against local traces.
//   - Match computes, in linear time, the maximal prefix of the specification's
//     expected sequence that some consistent interleaving reproduces, and a
//     canonical consistent completion that diverges exactly at that point.
//     Feeding the completion to core.Analyze yields conflict sets equal to
//     the union over all consistent interleavings (DESIGN.md §7).
//   - Closure is the bounded reference implementation of that union: it
//     enumerates consistent interleavings explicitly and accumulates the
//     executed-transition sets on compiled.Bits.
package ports

import (
	"encoding/json"
	"fmt"
	"sort"

	"cfsmdiag/internal/cfsm"
)

// DefaultPort is the observer name of the default single-port map.
const DefaultPort = "global"

// Map assigns every machine's external port to a named observer. The zero
// value is invalid; construct maps with Default, FromJSON or New.
type Map struct {
	names []string // distinct observer names, sorted
	obsOf []int    // machine index -> index of its observer in names
}

// Default returns the single-observer map: every machine reports to one
// global observer, which sees the classical globally ordered sequence.
func Default(sys *cfsm.System) Map {
	return Map{names: []string{DefaultPort}, obsOf: make([]int, sys.N())}
}

// New builds a map from per-machine observer names (indexed by machine). It
// rejects incomplete assignments and empty observer names.
func New(sys *cfsm.System, portOf []string) (Map, error) {
	if len(portOf) != sys.N() {
		return Map{}, fmt.Errorf("ports: %d observer assignments for %d machines", len(portOf), sys.N())
	}
	seen := map[string]bool{}
	var names []string
	for i, name := range portOf {
		if name == "" {
			return Map{}, fmt.Errorf("ports: machine %s has no observer port", sys.Machine(i).Name())
		}
		if !seen[name] {
			seen[name] = true
			names = append(names, name)
		}
	}
	sort.Strings(names)
	obsOf := make([]int, len(portOf))
	for i, name := range portOf {
		obsOf[i] = sort.SearchStrings(names, name)
	}
	return Map{names: names, obsOf: obsOf}, nil
}

// FromJSON decodes a port-map document — a JSON object mapping machine names
// to observer port names, e.g. {"M1": "site-a", "M2": "site-a", "M3": "site-b"}
// — and validates it against the system: every machine must be assigned to a
// non-empty observer, and no unknown machine may appear.
func FromJSON(data []byte, sys *cfsm.System) (Map, error) {
	var doc map[string]string
	if err := json.Unmarshal(data, &doc); err != nil {
		return Map{}, fmt.Errorf("ports: parse port map: %w", err)
	}
	return FromAssignments(doc, sys)
}

// FromAssignments builds a map from machine-name→observer-name assignments
// (the already-decoded form of the FromJSON document), with the same
// validation.
func FromAssignments(doc map[string]string, sys *cfsm.System) (Map, error) {
	portOf := make([]string, sys.N())
	for name, port := range doc {
		i, ok := sys.MachineIndex(name)
		if !ok {
			return Map{}, fmt.Errorf("ports: port map names unknown machine %q", name)
		}
		portOf[i] = port
	}
	for i, port := range portOf {
		if port == "" {
			return Map{}, fmt.Errorf("ports: machine %s is not assigned to an observer port", sys.Machine(i).Name())
		}
	}
	return New(sys, portOf)
}

// MarshalJSON renders the map back as the machine-name-keyed document. It
// needs the system to recover machine names, so Map serializes through
// ToJSON instead of implementing json.Marshaler.
func (m Map) ToJSON(sys *cfsm.System) ([]byte, error) {
	doc := make(map[string]string, len(m.obsOf))
	for i, o := range m.obsOf {
		doc[sys.Machine(i).Name()] = m.names[o]
	}
	return json.Marshal(doc)
}

// Single reports whether the map declares at most one observer — the
// degenerate case in which distributed observation collapses to the
// classical global sequence and the pipeline must behave identically.
func (m Map) Single() bool { return len(m.names) <= 1 }

// Port returns the observer name of a machine's external port.
func (m Map) Port(machine int) string { return m.names[m.obsOf[machine]] }

// PortNames returns the distinct observer names, sorted.
func (m Map) PortNames() []string { return append([]string(nil), m.names...) }

// Machines returns the number of machines the map covers.
func (m Map) Machines() int { return len(m.obsOf) }

// Silent reports whether an observation is invisible to every local
// observer: ε (no output) or the Null reset output.
func Silent(o cfsm.Observation) bool {
	return o.Sym == cfsm.Epsilon || o.Sym == cfsm.Null
}

// LocalTrace is one observer's record of a run: the ordered subsequence of
// non-silent observations at the machines assigned to that observer. Events
// keep their machine port — an observer watching several machines can tell
// which interface fired — but carry no global timestamps.
type LocalTrace struct {
	Port   string
	Events []cfsm.Observation
}

// Projection is the complete distributed record of one run: one local trace
// per observer, sorted by observer name, every observer present (possibly
// with no events).
type Projection []LocalTrace

// Project computes the per-port projection of a global observation sequence
// under the map.
func Project(m Map, global []cfsm.Observation) Projection {
	p := make(Projection, len(m.names))
	for i, name := range m.names {
		p[i].Port = name
	}
	for _, o := range global {
		if Silent(o) {
			continue
		}
		lt := &p[m.obsOf[o.Port]]
		lt.Events = append(lt.Events, o)
	}
	return p
}

// Equal reports whether two projections record the same distributed
// observation: same observers, same per-observer event sequences.
func (p Projection) Equal(q Projection) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i].Port != q[i].Port || len(p[i].Events) != len(q[i].Events) {
			return false
		}
		for j := range p[i].Events {
			if p[i].Events[j] != q[i].Events[j] {
				return false
			}
		}
	}
	return true
}

// Events returns the total event count across all observers.
func (p Projection) Events() int {
	n := 0
	for _, lt := range p {
		n += len(lt.Events)
	}
	return n
}

// String renders the projection for reports: "site-a: c'^1 d'^1 | site-b: b'^3".
func (p Projection) String() string {
	out := ""
	for i, lt := range p {
		if i > 0 {
			out += " | "
		}
		out += lt.Port + ":"
		if len(lt.Events) == 0 {
			out += " (silent)"
		}
		for _, e := range lt.Events {
			out += " " + e.String()
		}
	}
	return out
}

// Consistent reports whether a global observation sequence is consistent
// with a projection: projecting it under the map reproduces exactly the
// per-port local traces. This is the membership test of the interleaving
// set; Match and Closure reason over the whole set without enumerating it.
func Consistent(m Map, global []cfsm.Observation, p Projection) bool {
	return Project(m, global).Equal(p)
}

// validate checks a projection against the map and the test-case skeleton:
// observer names must match the map, every event's machine port must belong
// to its observer, and the events must fit into the non-reset slots (each
// input produces exactly one observation slot, and reset slots are silent).
func (m Map) validate(tc cfsm.TestCase, p Projection) error {
	if len(p) != len(m.names) {
		return fmt.Errorf("ports: projection has %d local traces for %d observers", len(p), len(m.names))
	}
	events := 0
	for i, lt := range p {
		if lt.Port != m.names[i] {
			return fmt.Errorf("ports: local trace %d is for observer %q, want %q", i, lt.Port, m.names[i])
		}
		for _, e := range lt.Events {
			if Silent(e) {
				return fmt.Errorf("ports: local trace %s records the silent observation %s", lt.Port, e)
			}
			if e.Port < 0 || e.Port >= len(m.obsOf) || m.Port(e.Port) != lt.Port {
				return fmt.Errorf("ports: local trace %s records event %s of a machine assigned elsewhere", lt.Port, e)
			}
		}
		events += len(lt.Events)
	}
	slots := 0
	for _, in := range tc.Inputs {
		if !in.IsReset() {
			slots++
		}
	}
	if events > slots {
		return fmt.Errorf("ports: %d observed events cannot fit the %d non-reset slots of %s", events, slots, tc.Name)
	}
	return nil
}
