package compiled

import (
	"fmt"
	"slices"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
)

// TestCompileAltOutsMatchAlternativeOutputs pins Compile's per-machine pool
// interning to the paper's per-transition definition: every compiled
// transition's output-fault space equals cfsm.System.AlternativeOutputs,
// interned, in order.
func TestCompileAltOutsMatchAlternativeOutputs(t *testing.T) {
	systems := map[string]*cfsm.System{"figure1": paper.MustFigure1()}
	for name, build := range map[string]func() (*cfsm.System, error){
		"abp": protocols.ABP,
		"gbn": protocols.GoBackN,
	} {
		sys, err := build()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		systems[name] = sys
	}
	for seed := int64(1); seed <= 40; seed++ {
		sys, err := randgen.Generate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed})
		if err != nil {
			t.Fatalf("randgen seed %d: %v", seed, err)
		}
		systems[fmt.Sprintf("randgen4x4-%d", seed)] = sys
	}
	for name, sys := range systems {
		p, err := Compile(sys)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ref := range sys.Refs() {
			var want []int32
			for _, o := range sys.AlternativeOutputs(ref) {
				want = append(want, p.symID[o])
			}
			got := p.alts(p.refIdx[ref])
			if !slices.Equal(got, want) {
				t.Errorf("%s %s: altOuts %v, AlternativeOutputs interns to %v", name, sys.RefString(ref), got, want)
			}
		}
	}
}
