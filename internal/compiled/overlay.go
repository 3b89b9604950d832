package compiled

import (
	"slices"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
)

// Overlay is a single-transition fault in compiled form: the table cell at
// index t reads (output, to, dest) instead of its compiled values. The zero
// overlay (None) leaves every cell untouched, realizing the specification
// itself. Patching one cell replaces the interpreted path's per-mutant
// system clone and re-validation.
type Overlay struct {
	t      int32 // compiled transition index; -1 = no patch
	output int32
	to     int32
	dest   int32
}

// None is the empty overlay: the program behaves as the specification.
func None() Overlay { return Overlay{t: -1} }

// OverlayFor lowers a fault into an overlay. It reports ok=false exactly
// when fault.Fault.Validate rejects the fault against the source system:
// the per-kind field rules for output/transfer/both faults, and the full
// model-rule re-validation (destination range, IEO/IIO partition, internal-
// chain restriction) for address faults. The equivalence is pinned by the
// differential tests.
func (p *Program) OverlayFor(f fault.Fault) (Overlay, bool) {
	idx, ok := p.refIdx[f.Ref]
	if !ok {
		return Overlay{}, false
	}
	return p.overlayAt(idx, f)
}

// overlayAt is OverlayFor after the Ref→index resolution; Engine.overlayFor
// memoises that map lookup across consecutive faults of the same transition.
func (p *Program) overlayAt(idx int32, f fault.Fault) (Overlay, bool) {
	t := p.trans[idx]
	ov := Overlay{t: idx, output: t.Output, to: t.To, dest: t.Dest}
	switch f.Kind {
	case fault.KindOutput, fault.KindTransfer, fault.KindBoth:
	case fault.KindAddress:
		return p.addressOverlay(idx, f.Dest)
	default:
		return Overlay{}, false
	}
	if f.Kind == fault.KindOutput || f.Kind == fault.KindBoth {
		oid, ok := p.symID[f.Output]
		if !ok || oid == t.Output {
			return Overlay{}, false
		}
		if !slices.Contains(p.alts(idx), oid) {
			return Overlay{}, false
		}
		ov.output = oid
	}
	if f.Kind == fault.KindTransfer || f.Kind == fault.KindBoth {
		sid, ok := p.machines[t.Machine].stateID[f.To]
		if !ok || sid == t.To {
			return Overlay{}, false
		}
		ov.to = sid
	}
	return ov, true
}

// addressOverlay validates and lowers an addressing fault (KindAddress),
// mirroring cfsm.System.RewireAddress plus the subsequent full validation.
// Because only one transition's destination changes, the model rules reduce
// to local checks:
//
//   - the new destination must differ, be the environment or a peer machine,
//     and not be the transition's own machine;
//   - if the transition's internal/external class flips, no other transition
//     of the machine may share its input (IEO/IIO partition);
//   - if the transition becomes internal, the receiver must define its
//     output only on external-output transitions, and no internal transition
//     may feed the transition's input into its machine (chain restriction,
//     sender and receiver side).
func (p *Program) addressOverlay(idx int32, newDest int) (Overlay, bool) {
	t := p.trans[idx]
	nd := int32(newDest)
	if nd == t.Dest {
		return Overlay{}, false
	}
	if newDest != cfsm.DestEnv && (newDest < 0 || newDest >= len(p.machines)) {
		return Overlay{}, false
	}
	if nd == t.Machine {
		return Overlay{}, false
	}
	newInternal := nd >= 0
	oldInternal := t.Dest >= 0
	if newInternal != oldInternal {
		// Class flip: any sibling transition with the same input keeps the
		// old class, breaking the IEO/IIO partition.
		for i, u := range p.trans {
			if int32(i) != idx && u.Machine == t.Machine && u.Input == t.Input {
				return Overlay{}, false
			}
		}
	}
	if newInternal {
		for _, u := range p.trans {
			// Sender side of the chain rule: the receiver must handle the
			// forwarded output externally wherever it defines it.
			if u.Machine == nd && u.Input == t.Output && u.Internal() {
				return Overlay{}, false
			}
			// Receiver side: an internal transition feeding t's input into
			// t's machine would now chain into an internal transition.
			if u.Dest == t.Machine && u.Output == t.Input {
				return Overlay{}, false
			}
		}
	}
	return Overlay{t: idx, output: t.Output, to: t.To, dest: nd}, true
}

// eff returns the effective (output, to, dest) of transition idx under the
// overlay.
func (ov Overlay) eff(idx int32, t Trans) (int32, int32, int32) {
	if ov.t == idx {
		return ov.output, ov.to, ov.dest
	}
	return t.Output, t.To, t.Dest
}
