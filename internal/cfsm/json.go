package cfsm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"

	"cfsmdiag/internal/jsonread"
)

// The JSON codec gives the CLI and downstream tools a stable on-disk format
// for systems. Destinations are encoded by machine name ("" = the machine's
// own external port) so files remain readable and order-independent.

// TransitionJSON is the serialized form of a Transition.
type TransitionJSON struct {
	Name   string `json:"name"`
	From   string `json:"from"`
	Input  string `json:"input"`
	Output string `json:"output"`
	To     string `json:"to"`
	// Dest is the receiving machine's name for internal-output transitions
	// and empty for external-output transitions.
	Dest string `json:"dest,omitempty"`
}

// MachineJSON is the serialized form of a Machine.
type MachineJSON struct {
	Name        string           `json:"name"`
	Initial     string           `json:"initial"`
	States      []string         `json:"states"`
	Transitions []TransitionJSON `json:"transitions"`
}

// SystemJSON is the serialized form of a System.
type SystemJSON struct {
	Machines []MachineJSON `json:"machines"`
}

// MarshalJSON serializes the system.
func (s *System) MarshalJSON() ([]byte, error) {
	doc := SystemJSON{Machines: make([]MachineJSON, len(s.machines))}
	for i, m := range s.machines {
		mj := MachineJSON{Name: m.name, Initial: string(m.initial)}
		for _, st := range m.states {
			mj.States = append(mj.States, string(st))
		}
		for _, t := range m.Transitions() {
			tj := TransitionJSON{
				Name:   t.Name,
				From:   string(t.From),
				Input:  string(t.Input),
				Output: string(t.Output),
				To:     string(t.To),
			}
			if t.Internal() {
				tj.Dest = s.machines[t.Dest].name
			}
			mj.Transitions = append(mj.Transitions, tj)
		}
		doc.Machines[i] = mj
	}
	return json.MarshalIndent(doc, "", "  ")
}

// DocumentError reports a system document that does not decode: malformed
// JSON, a value of the wrong kind, or an unknown field where those are
// rejected. Err is encoding/json's error on the same bytes.
type DocumentError struct{ Err error }

func (e DocumentError) Error() string { return e.Err.Error() }
func (e DocumentError) Unwrap() error { return e.Err }

// ParseSystem decodes a system from its JSON form and validates it. It
// accepts what json.Unmarshal accepts into SystemJSON: unknown fields are
// ignored, and nothing but whitespace may follow the document.
func ParseSystem(data []byte) (*System, error) {
	sys, _, err := decodeSystem(data, false, false)
	if errors.As(err, new(DocumentError)) {
		err = fmt.Errorf("cfsm: decode system: %w", err)
	}
	return sys, err
}

// ReadSystem decodes a system from its JSON form and validates it, as the
// server reads model documents: it accepts what a json.Decoder with
// DisallowUnknownFields accepts into SystemJSON, so an unknown field is a
// DocumentError and bytes after the document are ignored.
func ReadSystem(data []byte) (*System, error) {
	sys, _, err := decodeSystem(data, true, false)
	return sys, err
}

// TransitionSpan locates one transition object of a system document:
// data[Start:End] holds the object, possibly after some whitespace, and Ref
// names the transition it declares.
type TransitionSpan struct {
	Start, End int
	Ref        Ref
}

// ReadSystemSpans is ReadSystem that also returns the span of every
// transition object of the document, in document order. The spans are nil
// when the one-pass reader did not accept the document, and when its
// machines key or one machine's transitions key appears twice: the reader
// then reads the later array into the elements of the earlier one, so an
// object's bytes alone do not say what it declares.
func ReadSystemSpans(data []byte) (*System, []TransitionSpan, error) {
	return decodeSystem(data, true, true)
}

// ReadTransition reads data as one transition object of a ReadSystem
// document, with nothing but whitespace around it. It returns the
// transition, whose Dest is left unset, and the name of the machine it
// addresses ("" for the environment); ok is false for anything else, null
// included.
func ReadTransition(data []byte) (t Transition, dest string, ok bool) {
	data = bytes.Trim(data, " \t\n\r")
	if len(data) == 0 || data[0] != '{' {
		return Transition{}, "", false
	}
	r := jsonread.New(data, true)
	var td transitionDoc
	td.read(r)
	if !r.End() || r.Offset() != len(data) {
		return Transition{}, "", false
	}
	return td.Transition, td.dest, true
}

// decodeSystem reads a system document in one pass with internal/jsonread
// and validates it; strict selects the unknown-field and trailing-byte rules
// of ReadSystem over those of ParseSystem. A document the reader rejects is
// decoded again by encoding/json for its error. Should encoding/json accept
// it, its result stands, so the reader can only be slower than the reference
// on some input, never stricter. With spans, the spans of the transition
// objects are returned with a system the reader read (ReadSystemSpans).
func decodeSystem(data []byte, strict, spans bool) (*System, []TransitionSpan, error) {
	if doc, ok := readSystem(data, strict, spans); ok {
		sys, err := doc.build()
		if err != nil || !spans {
			return sys, nil, err
		}
		return sys, doc.spans(), nil
	}
	var doc SystemJSON
	var err error
	if strict {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		err = dec.Decode(&doc)
	} else {
		err = json.Unmarshal(data, &doc)
	}
	if err != nil {
		return nil, nil, DocumentError{Err: err}
	}
	sys, err := FromJSON(doc)
	return sys, nil, err
}

// systemDoc is a decoded system document before validation.
type systemDoc []machineDoc

type machineDoc struct {
	name, initial string
	states        []State
	trans         []transitionDoc
	// spans holds the start and end offsets of each transition object,
	// when the reader records them.
	spans []int
	// reread is set when the machine's transitions, or the document's
	// machines, were read from more than one array.
	reread bool
}

// transitionDoc is a transition whose destination is still a machine name.
type transitionDoc struct {
	Transition
	dest string
}

// spans returns the span of every transition object, or nil when an object
// was read into an element an earlier array left behind.
func (doc systemDoc) spans() []TransitionSpan {
	n := 0
	for _, m := range doc {
		if m.reread {
			return nil
		}
		n += len(m.trans)
	}
	out := make([]TransitionSpan, 0, n)
	for i, m := range doc {
		for k, t := range m.trans {
			out = append(out, TransitionSpan{Start: m.spans[2*k], End: m.spans[2*k+1], Ref: Ref{Machine: i, Name: t.Name}})
		}
	}
	return out
}

// readSystem reads a system document as encoding/json decodes it into
// SystemJSON, and reports whether encoding/json would accept it; with spans
// it records the span of each transition object. Keys arrive folded, so the
// field names below are the lower-case forms of SystemJSON's.
func readSystem(data []byte, strict, spans bool) (systemDoc, bool) {
	r := jsonread.New(data, strict)
	var doc systemDoc
	arrays := 0
	r.Struct(func(key []byte) bool {
		if string(key) != "machines" {
			return false
		}
		arrays++
		doc = jsonread.Slice(r, doc, func(m *machineDoc) { m.read(r, spans) })
		return true
	})
	if arrays > 1 {
		for i := range doc {
			doc[i].reread = true
		}
	}
	return doc, r.End()
}

func (m *machineDoc) read(r *jsonread.Reader, spans bool) {
	arrays := 0
	r.Struct(func(key []byte) bool {
		switch string(key) {
		case "name":
			jsonread.String(r, &m.name)
		case "initial":
			jsonread.String(r, &m.initial)
		case "states":
			m.states = jsonread.Slice(r, m.states, func(s *State) { jsonread.String(r, s) })
		case "transitions":
			arrays++
			m.trans = jsonread.Slice(r, m.trans, func(t *transitionDoc) {
				start := r.Offset()
				t.read(r)
				if spans {
					m.spans = append(m.spans, start, r.Offset())
				}
			})
		default:
			return false
		}
		return true
	})
	if arrays > 1 {
		m.reread = true
	}
}

func (t *transitionDoc) read(r *jsonread.Reader) {
	r.Struct(func(key []byte) bool {
		switch string(key) {
		case "name":
			jsonread.String(r, &t.Name)
		case "from":
			jsonread.String(r, &t.From)
		case "input":
			jsonread.String(r, &t.Input)
		case "output":
			jsonread.String(r, &t.Output)
		case "to":
			jsonread.String(r, &t.To)
		case "dest":
			jsonread.String(r, &t.dest)
		default:
			return false
		}
		return true
	})
}

// FromJSON builds a validated system from its serialized form.
func FromJSON(doc SystemJSON) (*System, error) {
	sd := make(systemDoc, len(doc.Machines))
	for i, mj := range doc.Machines {
		m := machineDoc{name: mj.Name, initial: mj.Initial, states: make([]State, len(mj.States))}
		for k, st := range mj.States {
			m.states[k] = State(st)
		}
		for _, tj := range mj.Transitions {
			m.trans = append(m.trans, transitionDoc{Transition: Transition{
				Name:   tj.Name,
				From:   State(tj.From),
				Input:  Symbol(tj.Input),
				Output: Symbol(tj.Output),
				To:     State(tj.To),
			}, dest: tj.Dest})
		}
		sd[i] = m
	}
	return sd.build()
}

// build validates the document: machine names are unique, destinations name
// machines of the system, and NewMachine and NewSystem accept the rest.
func (doc systemDoc) build() (*System, error) {
	index := make(map[string]int, len(doc))
	for i, m := range doc {
		if _, dup := index[m.name]; dup {
			return nil, fmt.Errorf("cfsm: duplicate machine name %q", m.name)
		}
		index[m.name] = i
	}
	machines := make([]*Machine, 0, len(doc))
	most := 0
	for _, md := range doc {
		most = max(most, len(md.trans))
	}
	trans := make([]Transition, 0, most)
	for _, md := range doc {
		trans = trans[:0]
		for _, td := range md.trans {
			t := td.Transition
			t.Dest = DestEnv
			if td.dest != "" {
				d, ok := index[td.dest]
				if !ok {
					return nil, fmt.Errorf("cfsm %s: transition %s addresses unknown machine %q",
						md.name, t.Name, td.dest)
				}
				t.Dest = d
			}
			trans = append(trans, t)
		}
		m, err := NewMachine(md.name, State(md.initial), md.states, trans)
		if err != nil {
			return nil, err
		}
		machines = append(machines, m)
	}
	return NewSystem(machines...)
}
