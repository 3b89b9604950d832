package fault

import (
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// KindAddress extends the paper's fault model with addressing faults — the
// extension its concluding discussion names as future work: "the extension
// of the CFSMs fault model is also recommended to cover, for example,
// addressing faults which are not considered in this paper". An addressing
// fault leaves the message type intact but delivers it to the wrong place:
// a different peer machine's queue, or the machine's own external port. It
// is represented by a Fault with Kind == KindAddress and the Dest field set
// (0-based machine index, or cfsm.DestEnv).
const KindAddress Kind = 4

func destName(spec *cfsm.System, dest int) string {
	if dest == cfsm.DestEnv {
		return "its own port"
	}
	if dest < 0 || dest >= spec.N() {
		return fmt.Sprintf("machine #%d", dest)
	}
	return spec.Machine(dest).Name()
}

// EnumerateAddress returns every valid addressing fault of the
// specification: for each transition, every alternative destination (each
// peer machine and the machine's own port) for which the rewired system
// still satisfies the model rules (IEO/IIO disjointness and the
// internal-chain restriction).
func EnumerateAddress(spec *cfsm.System) []Fault {
	var out []Fault
	for _, ref := range spec.Refs() {
		t, _ := spec.Transition(ref)
		for dest := cfsm.DestEnv; dest < spec.N(); dest++ {
			if dest == t.Dest || dest == ref.Machine {
				continue
			}
			f := Fault{Ref: ref, Kind: KindAddress, Dest: dest}
			if f.Validate(spec) != nil {
				continue
			}
			out = append(out, f)
		}
	}
	return out
}
