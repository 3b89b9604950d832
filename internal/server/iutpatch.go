package server

import (
	"bytes"
	"sort"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
)

// In the paper, an implementation under test differs from its specification
// in at most one transition, and a client that writes its IUT documents from
// the specification's, as perfbench and loadgen do, sends the
// specification's spelling with one transition object rewritten. Such an IUT
// is lowered to a one-cell overlay over the specification's compiled
// program: only the rewritten object is read, no system is built, and the
// oracle runs on the compiled runner. The patch accepts only an IUT the full
// read (cfsm.ReadSystem) accepts, and the overlay runs the system that read
// builds; every other IUT is read in full, so its answers and error texts
// are those of the full read.

// iutModel is a diagnosis' implementation under test: either a system read
// in full (sys), or the specification with the fault f, run as ov, the
// overlay f lowers to over the specification's program. A zero f with the
// empty overlay is the specification itself.
type iutModel struct {
	sys *cfsm.System
	f   fault.Fault
	ov  compiled.Overlay
}

// oracle returns the base oracle that runs the IUT, and a function reporting
// the tests and inputs it has run so far.
func (iut iutModel) oracle(prog *compiled.Program) (core.Oracle, func() (tests, inputs int)) {
	if iut.sys != nil {
		o := &core.SystemOracle{Sys: iut.sys}
		return o, func() (int, int) { return o.Tests, o.Inputs }
	}
	o := &compiled.Oracle{R: prog.RunnerFor(iut.ov)}
	return o, func() (int, int) { return o.Tests, o.Inputs }
}

// OnIUTResolved, when not nil, is called each time a diagnosis has resolved
// its implementation under test, with whether the IUT was patched over the
// specification's program instead of read in full. It is a hook for tests;
// set it before the server handles requests.
var OnIUTResolved func(patched bool)

// patchIUT lowers an inline IUT document to a one-cell overlay over prog,
// the program of the inline specification document specDoc, whose
// transition objects lie at spans. It reports false unless iutDoc equals
// specDoc or differs from it inside one transition object only, that object
// reads as exactly one transition object under ReadSystem's rules, and it
// keeps the transition's name, source state and input and rewrites either
// its output and next state, or its destination alone, into a fault
// Program.OverlayFor accepts.
func patchIUT(prog *compiled.Program, spans []cfsm.TransitionSpan, specDoc, iutDoc []byte) (iutModel, bool) {
	pre := commonPrefix(specDoc, iutDoc)
	if pre == len(specDoc) && pre == len(iutDoc) {
		return iutModel{ov: compiled.None()}, true
	}
	specEnd := len(specDoc) - commonSuffix(specDoc[pre:], iutDoc[pre:])
	// The last object starting at or before the first differing byte must
	// hold the whole differing window.
	i := sort.Search(len(spans), func(i int) bool { return spans[i].Start > pre }) - 1
	if i < 0 || specEnd > spans[i].End {
		return iutModel{}, false
	}
	span := spans[i]
	t, dest, ok := cfsm.ReadTransition(iutDoc[span.Start : span.End+len(iutDoc)-len(specDoc)])
	if !ok {
		return iutModel{}, false
	}
	spec := prog.System()
	st, _ := spec.Transition(span.Ref)
	if t.Name != st.Name || t.From != st.From || t.Input != st.Input {
		return iutModel{}, false
	}
	d := cfsm.DestEnv
	if dest != "" {
		if d, ok = spec.MachineIndex(dest); !ok {
			return iutModel{}, false
		}
	}
	f := fault.Fault{Ref: span.Ref}
	newOut, newTo := t.Output != st.Output, t.To != st.To
	switch {
	case d != st.Dest:
		if newOut || newTo {
			return iutModel{}, false
		}
		f.Kind, f.Dest = fault.KindAddress, d
	case newOut && newTo:
		f.Kind, f.Output, f.To = fault.KindBoth, t.Output, t.To
	case newOut:
		f.Kind, f.Output = fault.KindOutput, t.Output
	case newTo:
		f.Kind, f.To = fault.KindTransfer, t.To
	default:
		// The object is respelled, not rewritten.
		return iutModel{ov: compiled.None()}, true
	}
	ov, ok := prog.OverlayFor(f)
	if !ok {
		return iutModel{}, false
	}
	return iutModel{f: f, ov: ov}, true
}

// compareBlock is the stride of the prefix and suffix comparisons:
// bytes.Equal compares a block at a time, and only the block holding the
// first difference is walked byte by byte.
const compareBlock = 64

// commonPrefix returns the length of the longest common prefix of a and b.
func commonPrefix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+compareBlock <= n && bytes.Equal(a[i:i+compareBlock], b[i:i+compareBlock]) {
		i += compareBlock
	}
	for i < n && a[i] == b[i] {
		i++
	}
	return i
}

// commonSuffix returns the length of the longest common suffix of a and b.
func commonSuffix(a, b []byte) int {
	n := min(len(a), len(b))
	i := 0
	for i+compareBlock <= n && bytes.Equal(a[len(a)-i-compareBlock:len(a)-i], b[len(b)-i-compareBlock:len(b)-i]) {
		i += compareBlock
	}
	for i < n && a[len(a)-1-i] == b[len(b)-1-i] {
		i++
	}
	return i
}
