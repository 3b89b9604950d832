package compiled_test

import (
	"testing"

	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// The measurements behind BENCH_compile.json: compile cost and the serial
// sweep. Run with
//
//	go test ./internal/compiled -bench 'Compile|Sweep' -benchmem
//
// or regenerate the committed record with `cfsmdiag compilebench`.

func BenchmarkCompile(b *testing.B) {
	spec := paper.MustFigure1()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compiled.Compile(spec); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepCompiled is the serial Figure 1 sweep with the Table 1
// suite, the sweep row of BENCH_compile.json.
func BenchmarkSweepCompiled(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepOpts(spec, suite,
			experiments.SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSweepTour is the workload behind the workers=1 row of
// BENCH_sweep.json (`cfsmdiag sweep -paper -benchjson`): the Figure 1 sweep
// with the generated transition-tour suite.
func BenchmarkSweepTour(b *testing.B) {
	spec := paper.MustFigure1()
	suite, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) > 0 {
		b.Fatalf("tour left %v uncovered", uncovered)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunSweepOpts(spec, suite,
			experiments.SweepOptions{Workers: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRunnerSuite measures the compiled simulator alone (the oracle hot
// path), next to the interpreted System.RunSuite.
func BenchmarkRunnerSuite(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	prog, err := compiled.Compile(spec)
	if err != nil {
		b.Fatal(err)
	}
	r := prog.NewRunner()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.RunSuite(suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInterpretedSuite(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := spec.RunSuite(suite); err != nil {
			b.Fatal(err)
		}
	}
}
