package cfsmdiag_test

// bench_test.go holds one benchmark per reproduction experiment (DESIGN.md
// §5) plus ablation benchmarks for the substrate operations the algorithm is
// built on. Run with:
//
//	go test -bench=. -benchmem
//
// BenchmarkE1Table1            — regenerate Table 1 by simulation
// BenchmarkE2CandidateGen      — Steps 1–5 on the paper scenario
// BenchmarkE3AdaptiveDiagnosis — Steps 1–6 on the paper scenario
// BenchmarkE4Figure1           — construct + validate the Figure 1 system
// BenchmarkE5FaultSweep        — exhaustive mutant sweep (paper TS)
// BenchmarkE5FaultSweepParallel— worker-pool sweep, serial vs. NumCPU
// BenchmarkE6CostPoint         — cost comparison on the Figure 1 system
// BenchmarkE6Scaling           — diagnosis on random systems, N = 2..4
// BenchmarkE18DistObs          — diagnosis under a per-machine port map
// BenchmarkProductComposition  — the exponential baseline the paper avoids
// BenchmarkTourGeneration      — transition-tour suite generation
// BenchmarkDistinguish         — variant-distinguishing search
// BenchmarkSimulation          — raw simulator throughput

import (
	"fmt"
	"runtime"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/refsearch"
	"cfsmdiag/internal/testgen"
)

func BenchmarkE1Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunTable1()
		if err != nil || !res.Match() {
			b.Fatalf("Table 1 mismatch: %v", err)
		}
	}
}

func BenchmarkE2CandidateGen(b *testing.B) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		b.Fatal(err)
	}
	suite := paper.TestSuite()
	observed, err := iut.RunSuite(suite)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := core.Analyze(spec, suite, observed)
		if err != nil || len(a.Diagnoses) != 3 {
			b.Fatalf("analysis failed: %v", err)
		}
	}
}

func BenchmarkE3AdaptiveDiagnosis(b *testing.B) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		b.Fatal(err)
	}
	suite := paper.TestSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		loc, err := core.Diagnose(spec, suite, &core.SystemOracle{Sys: iut})
		if err != nil || loc.Verdict != core.VerdictLocalized {
			b.Fatalf("diagnosis failed: %v", err)
		}
	}
}

func BenchmarkE4Figure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.Figure1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE5FaultSweep(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunSweep(spec, suite, false)
		if err != nil || res.Counts[experiments.OutcomeInconsistent] != 0 {
			b.Fatalf("sweep failed: %v", err)
		}
	}
}

// BenchmarkE5FaultSweepParallel compares the worker-pool sweep engine
// against the serial path on the paper system. Run with -benchmem to see
// the allocation profile; the "mutants/s" metric is the sweep throughput.
// On a multi-core machine the workers=NumCPU sub-benchmark should scale
// near-linearly, since mutant diagnoses share only read-only state.
func BenchmarkE5FaultSweepParallel(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	mutants := len(fault.Enumerate(spec))
	counts := []int{1}
	if n := runtime.GOMAXPROCS(0); n > 1 {
		counts = append(counts, n)
	}
	for _, workers := range counts {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				res, err := experiments.RunSweepOpts(spec, suite,
					experiments.SweepOptions{Workers: workers})
				if err != nil || res.Counts[experiments.OutcomeInconsistent] != 0 {
					b.Fatalf("sweep failed: %v", err)
				}
			}
			b.ReportMetric(float64(mutants)*float64(b.N)/b.Elapsed().Seconds(), "mutants/s")
		})
	}
}

func BenchmarkE6CostPoint(b *testing.B) {
	spec := paper.MustFigure1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := experiments.RunCost("figure1", spec, 10)
		if err != nil || p.MutantsDetected == 0 {
			b.Fatalf("cost point failed: %v", err)
		}
	}
}

func BenchmarkE6Scaling(b *testing.B) {
	for n := 2; n <= 4; n++ {
		cfg := randgen.DefaultConfig()
		cfg.N = n
		sys := randgen.MustGenerate(cfg)
		suite, _ := testgen.Tour(sys, 0)
		// A fixed representative mutant per size: the first transfer fault.
		var chosen *fault.Fault
		for _, f := range fault.Enumerate(sys) {
			if f.Kind == fault.KindTransfer {
				chosen = &f
				break
			}
		}
		if chosen == nil {
			b.Fatal("no transfer fault available")
		}
		iut, err := chosen.Apply(sys)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.Diagnose(sys, suite, &core.SystemOracle{Sys: iut}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE18DistObs diagnoses every single-transition mutant of the E18
// systems (Figure 1 with its paper suite, randgen seeds 1 and 42 with
// transition tours) through ports.Diagnose under the per-machine port map:
// projected analysis and verification, the escalations under the matcher
// and projected Step 6. The "mutants/s" metric is the throughput.
func BenchmarkE18DistObs(b *testing.B) {
	type target struct {
		name  string
		spec  *cfsm.System
		suite []cfsm.TestCase
	}
	targets := []target{{"figure1", paper.MustFigure1(), paper.TestSuite()}}
	for _, seed := range []int64{1, 42} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys := randgen.MustGenerate(cfg)
		suite, _ := testgen.Tour(sys, 0)
		targets = append(targets, target{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	for _, tg := range targets {
		portOf := make([]string, tg.spec.N())
		for i := range portOf {
			portOf[i] = fmt.Sprintf("site-%02d", i)
		}
		pm, err := ports.New(tg.spec, portOf)
		if err != nil {
			b.Fatal(err)
		}
		var iuts []*cfsm.System
		for _, f := range fault.Enumerate(tg.spec) {
			iut, err := f.Apply(tg.spec)
			if err != nil {
				b.Fatal(err)
			}
			iuts = append(iuts, iut)
		}
		b.Run(tg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for _, iut := range iuts {
					if _, _, err := ports.Diagnose(tg.spec, tg.suite, &core.SystemOracle{Sys: iut}, pm); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(len(iuts))*float64(b.N)/b.Elapsed().Seconds(), "mutants/s")
		})
	}
}

func BenchmarkProductComposition(b *testing.B) {
	for n := 2; n <= 4; n++ {
		cfg := randgen.DefaultConfig()
		cfg.N = n
		sys := randgen.MustGenerate(cfg)
		b.Run(fmt.Sprintf("N=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := sys.Product(false); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkTourGeneration(b *testing.B) {
	spec := paper.MustFigure1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, uncovered := testgen.Tour(spec, 0)
		if len(suite) == 0 || len(uncovered) != 0 {
			b.Fatal("tour failed")
		}
	}
}

func BenchmarkDistinguish(b *testing.B) {
	spec := paper.MustFigure1()
	a := refsearch.Variant{Sys: spec, Cfg: cfsm.Config{"s0", "s0", "s1"}}
	c := refsearch.Variant{Sys: spec, Cfg: cfsm.Config{"s0", "s0", "s0"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok, _ := refsearch.Distinguish(a, c, spec.AllInputs(), nil, false); !ok {
			b.Fatal("distinguish failed")
		}
	}
}

func BenchmarkE7AddressSweep(b *testing.B) {
	spec := paper.MustFigure1()
	suite, _ := testgen.Tour(spec, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.RunAddressSweep(spec, suite); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE8DoubleFault(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunDoubleFaultDemo()
		if err != nil || res.Verdict != core.VerdictLocalized {
			b.Fatalf("double-fault demo failed: %v", err)
		}
	}
}

func BenchmarkE9AsyncDemo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunAsyncDemo()
		if err != nil || res.Verdict != core.VerdictLocalized {
			b.Fatalf("async demo failed: %v", err)
		}
	}
}

func BenchmarkE11ConcatScaling(b *testing.B) {
	for _, k := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("parts=%d", k+1), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunConcatScaling(k)
				if err != nil || p.Verdict != core.VerdictLocalized {
					b.Fatalf("scaling point failed: %v", err)
				}
			}
		})
	}
}

func BenchmarkVerificationSuite(b *testing.B) {
	spec := paper.MustFigure1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite, _ := testgen.VerificationSuite(spec)
		if len(suite) == 0 {
			b.Fatal("empty suite")
		}
	}
}

// BenchmarkAblationInitialSuite measures the end-to-end diagnosis cost of
// the paper's fault under the three initial-suite strategies: the paper's
// hand-written TS, a transition tour, and the fault-model verification
// suite. The tradeoff is suite size versus adaptive work.
func BenchmarkAblationInitialSuite(b *testing.B) {
	spec := paper.MustFigure1()
	iut, err := paper.FaultyImplementation()
	if err != nil {
		b.Fatal(err)
	}
	tour, _ := testgen.Tour(spec, 0)
	verify, _ := testgen.VerificationSuite(spec)
	suites := []struct {
		name  string
		suite []cfsm.TestCase
	}{
		{"paperTS", paper.TestSuite()},
		{"tour", tour},
		{"verification", verify},
	}
	for _, s := range suites {
		b.Run(s.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc, err := core.Diagnose(spec, s.suite, &core.SystemOracle{Sys: iut})
				if err != nil || loc.Verdict != core.VerdictLocalized {
					b.Fatalf("diagnosis failed: %v", err)
				}
			}
		})
	}
}

// BenchmarkAblationEscalation measures the cost of the combined-fault
// escalation path: a combined fault whose symptoms land on last steps forces
// the full escalation, versus the paper fault that resolves on the fast
// path.
func BenchmarkAblationEscalation(b *testing.B) {
	spec := paper.MustFigure1()
	combined := fault.Fault{Ref: cfsm.Ref{Machine: paper.M2, Name: "t'6"},
		Kind: fault.KindBoth, Output: "u", To: "s1"}
	iutCombined, err := combined.Apply(spec)
	if err != nil {
		b.Fatal(err)
	}
	iutPlain, err := paper.FaultyImplementation()
	if err != nil {
		b.Fatal(err)
	}
	cases := []struct {
		name string
		iut  *cfsm.System
	}{
		{"fastpath", iutPlain},
		{"escalated", iutCombined},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				loc, err := core.Diagnose(spec, paper.TestSuite(), &core.SystemOracle{Sys: c.iut})
				if err != nil || loc.Verdict != core.VerdictLocalized {
					b.Fatalf("diagnosis failed: %v / %v", err, loc.Verdict)
				}
			}
		})
	}
}

// TestSimulationAllocs pins the bound BenchmarkSimulation reports: with no
// instrumentation installed, each Figure 1 System.Run allocates at most
// twice (its observation slice and the run's configuration).
func TestSimulationAllocs(t *testing.T) {
	spec := paper.MustFigure1()
	for _, tc := range paper.TestSuite() {
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := spec.Run(tc); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 2 {
			t.Errorf("%s: System.Run allocates %.0f times, want at most 2", tc.Name, allocs)
		}
	}
}

func BenchmarkSimulation(b *testing.B) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, tc := range suite {
			if _, err := spec.Run(tc); err != nil {
				b.Fatal(err)
			}
		}
	}
}
