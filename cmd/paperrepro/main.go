// Command paperrepro regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §5 for the experiment index):
//
//	E1 table1      — Table 1: test cases, expected and observed outputs
//	E2 walkthrough — Section 4, Steps 3–5: conflict sets, candidate sets,
//	                 verified hypotheses and the diagnoses Diag1–Diag3
//	E3 adaptive    — Section 4, Step 6 and Figure 2: the progressive
//	                 construction of the additional diagnostic tests
//	E4 figure1     — Figure 1: the reconstructed system (stats + DOT)
//	E5 sweep       — extension: exhaustive single-fault sweep (paper TS,
//	                 tour and verification suites, plus random systems)
//	E6 cost        — extension: adaptive diagnosis vs. exhaustive
//	                 verification of the product machine, and the
//	                 CFSM-direct vs product-machine comparison
//	E7–E11         — extensions (addressing faults, double faults,
//	                 unsynchronized ports, protocol workloads, co-located
//	                 scaling), under -experiment extensions
//	E12 chaos      — extension: localization robustness under injected
//	                 observation faults (drop/garble/transient) with the
//	                 resilient retry/vote oracle layer
//	E14 compile    — extension: the dense compiled representation — compile
//	                 cost, the serial sweep, and the model-load trio (JSON
//	                 parse / binary decode / registry hit)
//	E18 distobs    — extension: diagnosis from per-port local projections
//	                 (distributed observation) vs the global sequence —
//	                 candidate-set growth, Step 6 recovery, localization cost
//
// Usage: paperrepro [-experiment all|table1|walkthrough|adaptive|figure1|sweep|cost|extensions|chaos|compile|distobs]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

func main() {
	experiment := flag.String("experiment", "all", "which experiment to run (all, table1, walkthrough, adaptive, figure1, sweep, cost, extensions, chaos, compile)")
	stride := flag.Int("stride", 1, "mutant sampling stride for the cost experiment")
	dot := flag.Bool("dot", false, "print the Figure 1 DOT graph in the figure1 experiment")
	flag.Parse()
	if err := run(*experiment, *stride, *dot, os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "paperrepro:", err)
		os.Exit(1)
	}
}

func run(experiment string, stride int, dot bool, out io.Writer) error {
	type step struct {
		name string
		fn   func(io.Writer) error
	}
	steps := []step{
		{"table1", runTable1},
		{"walkthrough", runWalkthrough},
		{"adaptive", runAdaptive},
		{"figure1", func(w io.Writer) error { return runFigure1(w, dot) }},
		{"sweep", runSweepExp},
		{"cost", func(w io.Writer) error { return runCostExp(w, stride) }},
		{"extensions", runExtensions},
		{"chaos", runChaosExp},
		{"compile", runCompileExp},
		{"distobs", runDistObsExp},
	}
	matched := false
	for _, s := range steps {
		if experiment != "all" && experiment != s.name {
			continue
		}
		matched = true
		fmt.Fprintf(out, "==== %s ====\n", s.name)
		if err := s.fn(out); err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
		fmt.Fprintln(out)
	}
	if !matched {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	return nil
}

func runTable1(out io.Writer) error {
	res, err := experiments.RunTable1()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "E1: Table 1 — test cases and their outputs")
	for _, row := range res.Rows {
		fmt.Fprintf(out, "%s:\n", row.Name)
		fmt.Fprintf(out, "  input             %s\n", row.Inputs)
		fmt.Fprintf(out, "  spec transitions  %s\n", row.SpecTrace)
		fmt.Fprintf(out, "  expected (paper)  %s\n", row.WantExpected)
		fmt.Fprintf(out, "  expected (ours)   %s   match=%v\n", row.GotExpected, row.ExpectedMatch)
		fmt.Fprintf(out, "  observed (paper)  %s\n", row.WantObserved)
		fmt.Fprintf(out, "  observed (ours)   %s   match=%v\n", row.GotObserved, row.ObservedMatch)
	}
	fmt.Fprintf(out, "Table 1 reproduced exactly: %v\n", res.Match())
	return nil
}

func runWalkthrough(out io.Writer) error {
	res, err := experiments.RunWalkthrough()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "E2: Section 4 walkthrough, Steps 3–5")
	fmt.Fprint(out, res.Analysis.Report())
	return nil
}

func runAdaptive(out io.Writer) error {
	res, err := experiments.RunWalkthrough()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "E3: Section 4 Step 6 / Figure 2 — additional diagnostic tests")
	fmt.Fprint(out, res.Localization.Report())
	fmt.Fprintf(out, "adaptive cost: %d additional tests, %d inputs\n",
		res.Oracle.Tests, res.Oracle.Inputs)
	return nil
}

func runFigure1(out io.Writer, dot bool) error {
	sys := paper.MustFigure1()
	fmt.Fprintln(out, "E4: Figure 1 — the reconstructed three-machine system")
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		fmt.Fprintf(out, "%s (port %d, initial %s):\n", m.Name(), i+1, m.Initial())
		for _, t := range m.Transitions() {
			fmt.Fprintf(out, "  %s\n", t)
		}
	}
	fmt.Fprintf(out, "alphabets: ")
	for i := 0; i < sys.N(); i++ {
		fmt.Fprintf(out, "IEO%d=%v IIO%d=%v  ", i+1, sys.IEO(i), i+1, sys.IIO(i))
	}
	fmt.Fprintln(out)
	if dot {
		fmt.Fprint(out, sys.DOT())
	}
	return nil
}

func runSweepExp(out io.Writer) error {
	spec := paper.MustFigure1()
	fmt.Fprintln(out, "E5: exhaustive single-transition fault sweep on the Figure 1 system")

	for _, mode := range []struct {
		label string
		suite []cfsm.TestCase
	}{
		{"paper TS (2 test cases)", paper.TestSuite()},
		{"generated transition tour", tourSuite(spec)},
		{"fault-model verification suite", verificationSuite(spec)},
	} {
		res, err := experiments.RunSweep(spec, mode.suite, true)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "suite = %s (%d cases, %d inputs): %d mutants\n",
			mode.label, len(mode.suite), testgen.SuiteInputs(mode.suite), len(res.Reports))
		for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
			if res.Counts[o] > 0 {
				fmt.Fprintf(out, "  %-26s %d\n", o.String()+":", res.Counts[o])
			}
		}
		if res.UndetectedEquivalent > 0 {
			fmt.Fprintf(out, "  (of the undetected, %d are provably equivalent to the spec)\n",
				res.UndetectedEquivalent)
		}
		if res.Detected > 0 {
			fmt.Fprintf(out, "  adaptive cost per detected mutant: %.2f additional tests\n",
				float64(res.TotalAdditionalTests)/float64(res.Detected))
		}
	}

	fmt.Fprintln(out, "generality: sweeps over random valid systems (verification suites)")
	for _, seed := range []int64{11, 12, 13} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			return err
		}
		suite := verificationSuite(sys)
		res, err := experiments.RunSweep(sys, suite, false)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  seed %d (N=%d, %d transitions): %d mutants —",
			seed, sys.N(), sys.NumTransitions(), len(res.Reports))
		for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
			if res.Counts[o] > 0 {
				fmt.Fprintf(out, " %s=%d", o, res.Counts[o])
			}
		}
		fmt.Fprintln(out)
	}
	return nil
}

func tourSuite(spec *cfsm.System) []cfsm.TestCase {
	suite, _ := testgen.Tour(spec, 0)
	return suite
}

func verificationSuite(spec *cfsm.System) []cfsm.TestCase {
	suite, _ := testgen.VerificationSuite(spec)
	return suite
}

func runExtensions(out io.Writer) error {
	fmt.Fprintln(out, "E7: addressing-fault sweep (future-work fault model)")
	spec := paper.MustFigure1()
	suite := verificationSuite(spec)
	addr, err := experiments.RunAddressSweep(spec, suite)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  %d addressing mutants: %d undetected, %d correctly attributed, %d wrong\n",
		addr.Mutants, addr.Undetected, addr.Correct, addr.Wrong)

	fmt.Fprintln(out, "E8: double-fault diagnosis (at-most-two-faults class)")
	dbl, err := experiments.RunDoubleFaultDemo()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  injected:  %s\n", dbl.Injected)
	fmt.Fprintf(out, "  verdict:   %s\n", dbl.Verdict)
	fmt.Fprintf(out, "  localized: %s (%d tests total)\n", dbl.Localized, dbl.Tests)

	fmt.Fprintln(out, "E9: unsynchronized ports (nondeterministic behaviours)")
	as, err := experiments.RunAsyncDemo()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  racing script admits %d spec outcomes; fault detected: %v\n",
		as.SpecOutcomes, as.Detected)
	fmt.Fprintf(out, "  verdict:   %s\n", as.Verdict)
	fmt.Fprintf(out, "  localized: %s (%d single-port probes)\n", as.Localized, as.Probes)

	fmt.Fprintln(out, "E10: alternating-bit protocol workload")
	abp := protocols.MustABP()
	abpSuite := verificationSuite(abp)
	res, err := experiments.RunSweep(abp, abpSuite, false)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  ABP: %d machines, %d transitions; verification suite: %d cases\n",
		abp.N(), abp.NumTransitions(), len(abpSuite))
	fmt.Fprintf(out, "  %d mutants:", len(res.Reports))
	for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
		if res.Counts[o] > 0 {
			fmt.Fprintf(out, " %s=%d", o, res.Counts[o])
		}
	}
	fmt.Fprintln(out)

	fmt.Fprintln(out, "E11: co-located workload scaling (Concat of protocol instances)")
	fmt.Fprintf(out, "  %8s %9s %12s %7s %9s %8s %s\n",
		"parts", "machines", "transitions", "suite", "addTests", "correct", "verdict")
	for _, k := range []int{1, 2, 4, 8} {
		p, err := experiments.RunConcatScaling(k)
		if err != nil {
			return err
		}
		fmt.Fprintf(out, "  %8d %9d %12d %7d %9d %8v %s\n",
			p.Parts, p.Machines, p.Trans, p.SuiteCases, p.AddTests, p.CorrectRef, p.Verdict)
	}
	return nil
}

func runChaosExp(out io.Writer) error {
	cfg := experiments.DefaultChaosConfig
	fmt.Fprintln(out, "E12: Figure 1 localization under injected observation faults")
	fmt.Fprintf(out, "per-mode injection probability p (drop, garble; transient errors at p/2); "+
		"oracle budget: %d votes, %d retries; 20 seeded schedules per point\n", cfg.Votes, cfg.Retries)
	points, err := experiments.RunChaos([]float64{0, 0.1, 0.2, 0.3, 0.4, 0.5}, 20, cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "  %5s %10s %13s %6s %9s %11s %8s %11s\n",
		"p", "localized", "inconclusive", "wrong", "success%", "injections", "retries", "unreliable")
	for _, p := range points {
		fmt.Fprintf(out, "  %5.2f %10d %13d %6d %8.0f%% %11d %8d %11d\n",
			p.P, p.Localized, p.Inconclusive, p.Wrong, 100*p.SuccessRate(),
			p.Injections, p.Retries, p.Unreliable)
	}
	fmt.Fprintln(out, "safety: a conviction is only ever the paper's t\"4 transfer fault (wrong stays 0)")
	return nil
}

func runCostExp(out io.Writer, stride int) error {
	fmt.Fprintln(out, "E6: adaptive diagnosis vs. exhaustive product-machine verification")
	fmt.Fprintf(out, "%-24s %8s %8s %8s %8s %10s %10s %12s %8s\n",
		"system", "machines", "sysTr", "prodSt", "prodTr", "adaptTest", "adaptIn", "exhaustIn", "ratio")

	spec := paper.MustFigure1()
	points := []experiments.CostPoint{}
	p, err := experiments.RunCost("figure1", spec, stride)
	if err != nil {
		return err
	}
	points = append(points, p)

	sweep, err := experiments.CostSweep(4, 3, stride*4, []int64{1, 2})
	if err != nil {
		return err
	}
	points = append(points, sweep...)

	for _, p := range points {
		fmt.Fprintf(out, "%-24s %8d %8d %8d %8d %10.2f %10.2f %12d %8.1f\n",
			p.Label, p.Machines, p.SystemTrans, p.ProductSt, p.ProductTr,
			p.AvgAdaptiveTests, p.AvgAdaptiveIn, p.ExhaustiveIn, p.Ratio())
	}
	fmt.Fprintln(out, "ratio = exhaustive inputs / average adaptive inputs per detected mutant")

	cmpRes, err := experiments.RunProductComparison()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, "\nCFSM-direct vs product-machine diagnosis on the paper's scenario:")
	fmt.Fprint(out, cmpRes.Report())
	return nil
}

func runCompileExp(out io.Writer) error {
	fmt.Fprintln(out, "E14: compiled dense representation (Figure 1)")
	rec, err := experiments.RunCompileBench()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "compile: %d ns once per sweep (%d symbols, %d global configurations)\n",
		rec.CompileNsPerOp, rec.NumSymbols, rec.Configurations)
	fmt.Fprintf(out, "serial sweep: %d ns/mutant, %d allocs/sweep\n",
		rec.SweepNsPerMutant, rec.SweepAllocsPerOp)
	fmt.Fprintf(out, "model load: JSON parse %d ns, binary decode %d ns, registry hit %d ns\n",
		rec.JSONParseNsPerOp, rec.BinaryDecodeNsPerOp, rec.RegistryHitNsPerOp)
	fmt.Fprintln(out, "(write the machine-readable record with `cfsmdiag compilebench`)")
	return nil
}

func runDistObsExp(out io.Writer) error {
	fmt.Fprintln(out, "E18: distributed observation — per-port projections vs the global sequence")
	type target struct {
		name  string
		sys   *cfsm.System
		suite []cfsm.TestCase
	}
	targets := []target{{"figure1", paper.MustFigure1(), paper.TestSuite()}}
	for _, seed := range []int64{1, 42} {
		cfg := randgen.DefaultConfig()
		cfg.Seed = seed
		sys, err := randgen.Generate(cfg)
		if err != nil {
			return err
		}
		suite, _ := testgen.Tour(sys, 0)
		targets = append(targets, target{fmt.Sprintf("rand-%d", seed), sys, suite})
	}
	fmt.Fprintf(out, "%-10s %8s %9s %9s %10s %9s %8s %12s %12s\n",
		"system", "mutants", "detected", "enlarged", "recovered", "degraded", "wrong", "global-tests", "local-tests")
	for _, tg := range targets {
		res, err := experiments.RunDistObs(tg.name, tg.sys, tg.suite, experiments.DistObsOptions{Workers: 4})
		if err != nil {
			return fmt.Errorf("%s: %w", tg.name, err)
		}
		fmt.Fprintf(out, "%-10s %8d %9d %9d %10d %9d %8d %12d %12d\n",
			res.System, res.Mutants, res.Detected, res.Enlarged, res.Recovered,
			res.Degraded, res.WrongConvictions, res.GlobalTests, res.LocalTests)
		if tg.name == "figure1" {
			for _, ex := range res.Examples {
				fmt.Fprintf(out, "  example: %s — candidates %d -> %d, verdict %s -> %s, tests %d -> %d\n",
					ex.Fault, ex.GlobalDiagnoses, ex.LocalDiagnoses,
					ex.GlobalVerdict, ex.LocalVerdict, ex.GlobalTests, ex.LocalTests)
			}
		}
	}
	fmt.Fprintln(out, "wrong = distributed convictions a projection could refute (soundness demands 0)")
	return nil
}
