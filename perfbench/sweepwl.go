package main

import (
	"fmt"
	"maps"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// sweepSpec is one specification a sweep run diagnoses every mutant of.
type sweepSpec struct {
	seed        int64 // randgen seed
	spec        *cfsm.System
	suite       []cfsm.TestCase
	suiteInputs int
}

// chooseSweep leaves one pool specification out and orders the rest, both
// by the seed. Sweeping all but one keeps every run's mix close to the
// pool's, so runs on different seeds measure nearly the same work.
func chooseSweep(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(len(randgenPool))
	out := make([]int64, 0, len(perm)-1)
	for _, i := range perm[1:] {
		out = append(out, randgenPool[i])
	}
	return out
}

// setUpSweep does the work a sweep needs before its first mutant: generate
// each specification, build its tour, compile the program and suite, and
// enumerate the faults. RunSweepOpts repeats the last three itself; here
// they are timed as the set-up cost and dropped.
func setUpSweep(seeds []int64) ([]sweepSpec, error) {
	out := make([]sweepSpec, len(seeds))
	for i, seed := range seeds {
		sys, err := randgen.Generate(randgen4x4(seed))
		if err != nil {
			return nil, err
		}
		suite, _ := testgen.Tour(sys, 0)
		prog, err := compiled.Compile(sys)
		if err != nil {
			return nil, err
		}
		compiled.NewSuite(prog, suite)
		fault.Enumerate(sys)
		out[i] = sweepSpec{seed: seed, spec: sys, suite: suite, suiteInputs: testgen.SuiteInputs(suite)}
	}
	return out, nil
}

// runSweep is the timing run of the sweep workload: RunSweepOpts with
// nproc workers over the chosen specifications, round robin, for the run
// length; every result is then compared with a one-worker sweep.
func runSweep(opt options) (outcome, error) {
	seeds := chooseSweep(opt.seed)
	var setups []float64
	var specs []sweepSpec
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		var err error
		if specs, err = setUpSweep(seeds); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}

	// The reference: each spec swept on one worker, whose outcome table
	// every timed sweep must reproduce, with no wrong or inconsistent
	// verdict. Timed results are compared as they arrive and dropped, so the
	// process's memory does not grow with the run.
	var t tally
	refs := make([]experiments.SweepResult, len(specs))
	for k, sp := range specs {
		var err error
		if refs[k], err = experiments.RunSweepOpts(sp.spec, sp.suite, experiments.SweepOptions{Workers: 1}); err != nil {
			return outcome{}, err
		}
		for _, o := range []experiments.MutantOutcome{experiments.OutcomeLocalizedWrong, experiments.OutcomeInconsistent} {
			if n := refs[k].Counts[o]; n > 0 {
				t.fail(fmt.Sprintf("rand4x4-%d: %d %s outcomes", sp.seed, n, o))
			}
		}
		t.detected += refs[k].Detected
		t.addlTests += refs[k].TotalAdditionalTests
		// AdditionalIn counts every input the mutant's oracle ran, suite
		// included; addl_inputs keeps only Step 6's.
		t.addlInputs += refs[k].TotalAdditionalInputs - refs[k].Detected*sp.suiteInputs
	}

	workers := runtime.NumCPU()
	sweeps := 0
	// Whole rounds over every chosen specification until the run length has
	// passed; each round yields a throughput and its sweeps' wall times.
	var roundRate, roundP50, roundP90 []float64
	cpu0, err := cpuSeconds(os.Getpid())
	if err != nil {
		return outcome{}, err
	}
	rssDuring := sampleRSS(os.Getpid())
	for start := time.Now(); len(roundRate) == 0 || time.Since(start) < opt.seconds; {
		var walls []float64
		mutants := 0
		var busy time.Duration
		for k, sp := range specs {
			t0 := time.Now()
			res, err := experiments.RunSweepOpts(sp.spec, sp.suite, experiments.SweepOptions{Workers: workers})
			wall := time.Since(t0)
			if err != nil {
				rssDuring.finish()
				return outcome{}, fmt.Errorf("sweep rand4x4-%d: %w", sp.seed, err)
			}
			busy += wall
			walls = append(walls, ms(wall))
			mutants += len(res.Reports)
			sweeps++
			t.attempted += len(res.Reports)
			if !sameSweep(res, refs[k]) {
				t.fail(fmt.Sprintf("rand4x4-%d: the %d-worker sweep differs from the 1-worker sweep", sp.seed, workers))
			}
		}
		roundRate = append(roundRate, float64(mutants)/busy.Seconds())
		roundP50 = append(roundP50, quantile(walls, 0.5))
		roundP90 = append(roundP90, quantile(walls, 0.9))
	}
	rss := rssDuring.finish()
	cpu1, err := cpuSeconds(os.Getpid())
	if err != nil {
		return outcome{}, err
	}

	addlTests, addlInputs := t.perDetected()
	return outcome{
		res: result{
			Correct:   t.failed == 0,
			Attempted: t.attempted,
			Failed:    t.failed,
			Metrics: endToEnd((cpu1-cpu0)*1000/float64(t.attempted), median(slices.Clone(roundRate)),
				addlTests, addlInputs, median(setups), rss),
		},
		details: map[string]any{
			"specs":       seeds,
			"p50_ms":      median(roundP50),
			"p90_ms":      median(roundP90),
			"workers":     workers,
			"sweeps":      sweeps,
			"round_rates": roundRate,
			"detected":    t.detected,
			"setup_runs":  setups,
			"failures":    t.errors,
		},
	}, nil
}

// sameSweep reports whether two sweeps of one spec agree report by report
// and in every total.
func sameSweep(a, b experiments.SweepResult) bool {
	return maps.Equal(a.Counts, b.Counts) && a.Detected == b.Detected &&
		a.TotalAdditionalTests == b.TotalAdditionalTests &&
		a.TotalAdditionalInputs == b.TotalAdditionalInputs &&
		slices.Equal(a.Reports, b.Reports)
}
