package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
)

// traceSweep is the traced run of the sweep workload. For each chosen
// specification it times RunSweepOpts untraced on one worker and on nproc
// workers, then replays the same sweep by hand on the compiled engine, the
// way the sweep diagnoses each mutant, with a span around every stage.
// experiments.stage_share is the stage time over the one-worker sweep's
// wall time; the rest is the sweep loop and outcome classification.
func traceSweep(opt options) (outcome, error) {
	specs, err := setUpSweep(chooseSweep(opt.seed))
	if err != nil {
		return outcome{}, err
	}
	workers := runtime.NumCPU()
	rec := newRecorder()
	var t tally
	var counts diagCounts
	var serialWall, parallelWall, replayWall time.Duration
	mutants := 0
	for k, sp := range specs {
		start := time.Now()
		ref, err := experiments.RunSweepOpts(sp.spec, sp.suite, experiments.SweepOptions{Workers: 1})
		serialWall += time.Since(start)
		if err != nil {
			return outcome{}, err
		}
		start = time.Now()
		if _, err := experiments.RunSweepOpts(sp.spec, sp.suite, experiments.SweepOptions{Workers: workers}); err != nil {
			return outcome{}, err
		}
		parallelWall += time.Since(start)

		start = time.Now()
		root := rec.begin("experiments.sweep", 0, k)
		id := rec.begin("fault.enumerate", root, k)
		faults := fault.Enumerate(sp.spec)
		rec.end(id)
		id = rec.begin("compiled.compile", root, k)
		prog, err := compiled.Compile(sp.spec)
		rec.end(id)
		if err != nil {
			return outcome{}, err
		}
		id = rec.begin("compiled.suite", root, k)
		csuite := compiled.NewSuite(prog, sp.suite)
		rec.end(id)
		eng, err := compiled.EngineFor(prog)
		if err != nil {
			return outcome{}, err
		}
		eng.SetSuite(csuite)
		runner := prog.NewRunner()
		for j, f := range faults {
			ov, ok := prog.OverlayFor(f)
			if !ok {
				return outcome{}, fmt.Errorf("rand4x4-%d: no overlay for %s", sp.seed, f.Describe(sp.spec))
			}
			mid := rec.begin("experiments.mutant", root, mutants)
			runner.SetOverlay(ov)
			oracle := &compiled.Oracle{R: runner}
			observed := make([][]cfsm.Observation, len(sp.suite))
			for c, tc := range sp.suite {
				id = rec.begin("compiled.oracle", mid, mutants)
				observed[c], err = oracle.Execute(tc)
				rec.end(id)
				if err != nil {
					return outcome{}, err
				}
			}
			id = rec.begin("compiled.analyze", mid, mutants)
			a, err := core.Analyze(sp.spec, sp.suite, observed, core.WithEngine(eng))
			rec.end(id)
			if err != nil {
				return outcome{}, err
			}
			id = rec.begin("compiled.step6", mid, mutants)
			step6 := &timedOracle{inner: oracle, rec: rec, name: "compiled.oracle", parent: id, req: mutants}
			loc, err := core.LocalizeContext(context.Background(), a, step6, core.WithEngine(eng))
			rec.end(id)
			rec.end(mid)
			if err != nil {
				return outcome{}, err
			}
			counts.add(loc, a, step6.calls)

			// The replay must reproduce the sweep's own report.
			t.attempted++
			want := ref.Reports[j]
			switch {
			case want.Fault != f:
				t.fail(fmt.Sprintf("rand4x4-%d mutant %d: sweep order differs from fault.Enumerate", sp.seed, j))
			case (loc.Verdict == core.VerdictNoFault) != (want.Outcome == experiments.OutcomeUndetected),
				want.AdditionalTests != oracle.Tests-len(sp.suite), want.AdditionalIn != oracle.Inputs:
				t.fail(fmt.Sprintf("rand4x4-%d mutant %d: traced replay differs from the sweep", sp.seed, j))
			}
			mutants++
		}
		rec.end(root)
		replayWall += time.Since(start)
	}
	if err := rec.write(spanFile(opt)); err != nil {
		return outcome{}, err
	}

	total, self := rec.times()
	var l layers
	perSpec := func(d time.Duration) float64 { return us(d) / float64(len(specs)) }
	perMutant := func(d time.Duration) float64 { return us(d) / float64(mutants) }
	l.enumerate = perSpec(total["fault.enumerate"])
	l.compile = perSpec(total["compiled.compile"])
	l.suite = perSpec(total["compiled.suite"])
	l.cAnalyze = perMutant(total["compiled.analyze"])
	l.cStep6 = perMutant(self["compiled.step6"])
	l.cOracle = perMutant(total["compiled.oracle"])
	stages := total["fault.enumerate"] + total["compiled.compile"] + total["compiled.suite"] +
		total["compiled.analyze"] + self["compiled.step6"] + total["compiled.oracle"]
	l.sweepStageShare = stages.Seconds() / serialWall.Seconds()
	l.parallelEfficiency = stages.Seconds() / (parallelWall.Seconds() * float64(workers))
	l.overheadRatio = replayWall.Seconds() / serialWall.Seconds()
	l.spans = float64(len(rec.spans))
	counts.fill(&l)
	return outcome{
		res: result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: l.metrics()},
		details: map[string]any{
			"specs":            len(specs),
			"mutants":          mutants,
			"workers":          workers,
			"serial_wall_ms":   ms(serialWall),
			"parallel_wall_ms": ms(parallelWall),
			"replay_wall_ms":   ms(replayWall),
			"span_file":        spanFile(opt),
			"failures":         t.errors,
		},
	}, nil
}
