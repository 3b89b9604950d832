package fault

import (
	"testing"

	"cfsmdiag/internal/paper"
)

// BenchmarkMutantsApply measures the clone-per-mutant realization
// (Fault.Apply: one machine clone plus a full model re-validation per
// mutant) that the experiments' compiled overlays avoid.
func BenchmarkMutantsApply(b *testing.B) {
	spec := paper.MustFigure1()
	faults := Enumerate(spec)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, f := range faults {
			if _, err := f.Apply(spec); err != nil {
				b.Fatal(err)
			}
		}
	}
}
