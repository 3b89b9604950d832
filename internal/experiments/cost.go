package experiments

import (
	"context"
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/singlefsm"
	"cfsmdiag/internal/testgen"
)

// CostPoint is one row of the E6 cost comparison for a single system.
type CostPoint struct {
	Label string
	// System shape.
	Machines     int
	SystemStates int // sum of per-machine state counts
	SystemTrans  int // sum of per-machine transition counts
	ProductSt    int // global (product) states — the state-explosion axis
	ProductTr    int

	// Diagnosis cost, averaged over the sampled detected mutants: number of
	// additional adaptive tests and inputs spent by the CFSM-direct
	// algorithm after detection.
	MutantsSampled   int
	MutantsDetected  int
	AvgAdaptiveTests float64
	AvgAdaptiveIn    float64

	// Exhaustive baseline: verifying every transition of the product
	// machine in the W-method style (tests and inputs).
	ExhaustiveTests int
	ExhaustiveIn    int
}

// Ratio returns the exhaustive-to-adaptive input ratio — the paper's
// "shorter test suites" factor. Zero when the adaptive cost is zero.
func (p CostPoint) Ratio() float64 {
	if p.AvgAdaptiveIn == 0 {
		return 0
	}
	return float64(p.ExhaustiveIn) / p.AvgAdaptiveIn
}

// RunCost computes one E6 cost point for a system: it generates a
// transition-tour initial suite, samples every k-th mutant (stride
// sampleStride ≥ 1), diagnoses each detected mutant adaptively, and compares
// the average adaptive cost with the cost of exhaustively verifying every
// transition of the product machine.
func RunCost(label string, sys *cfsm.System, sampleStride int) (CostPoint, error) {
	if sampleStride < 1 {
		sampleStride = 1
	}
	point := CostPoint{Label: label, Machines: sys.N()}
	for i := 0; i < sys.N(); i++ {
		point.SystemStates += len(sys.Machine(i).States())
	}
	point.SystemTrans = sys.NumTransitions()

	prod, err := sys.Product(false)
	if err != nil {
		return point, fmt.Errorf("product: %w", err)
	}
	point.ProductSt = len(prod.States())
	point.ProductTr = prod.NumTransitions()
	point.ExhaustiveTests, point.ExhaustiveIn = singlefsm.ExhaustiveCost(prod)

	suite, _ := testgen.Tour(sys, 0)
	faults := fault.Enumerate(sys)
	var sampled []fault.Fault
	for i := 0; i < len(faults); i += sampleStride {
		sampled = append(sampled, faults[i])
	}
	type cost struct {
		detected      bool
		tests, inputs int
	}
	costs, err := mapMutants(context.Background(), sys, suite, sampled, 1, nil,
		func(ctx context.Context, w sweepWorker, f fault.Fault) (cost, error) {
			loc, oracle, err := w.diagnose(ctx, f)
			if err != nil || loc.Verdict == core.VerdictNoFault {
				return cost{}, err
			}
			c := cost{detected: true, tests: oracle.Tests - len(suite)}
			for _, at := range loc.AdditionalTests {
				c.inputs += len(at.Test.Inputs)
			}
			return c, nil
		})
	if err != nil {
		return point, err
	}
	point.MutantsSampled = len(costs)
	totalTests, totalInputs := 0, 0
	for _, c := range costs {
		if c.detected {
			point.MutantsDetected++
			totalTests += c.tests
			totalInputs += c.inputs
		}
	}
	if point.MutantsDetected > 0 {
		point.AvgAdaptiveTests = float64(totalTests) / float64(point.MutantsDetected)
		point.AvgAdaptiveIn = float64(totalInputs) / float64(point.MutantsDetected)
	}
	return point, nil
}

// CostSweep runs RunCost over a family of random systems of growing size
// (N = 2..maxN machines). It is the data behind the E6 table, parallelized
// over runtime.GOMAXPROCS(0) workers; point order is deterministic.
func CostSweep(maxN int, statesPerMachine int, sampleStride int, seeds []int64) ([]CostPoint, error) {
	return CostSweepOpts(maxN, statesPerMachine, sampleStride, seeds, SweepOptions{})
}

// CostSweepOpts is CostSweep with an explicit worker count (opts.Workers, 0
// = GOMAXPROCS). Each (N, seed) point — generation, product construction and
// sampled mutant diagnoses — runs on one worker; results come back in the
// same (N-major, seed-minor) order the serial loop produced, and the first
// error in that order wins, so output is independent of the worker count.
func CostSweepOpts(maxN int, statesPerMachine int, sampleStride int, seeds []int64, opts SweepOptions) ([]CostPoint, error) {
	type job struct {
		n    int
		seed int64
	}
	var jobsList []job
	for n := 2; n <= maxN; n++ {
		for _, seed := range seeds {
			jobsList = append(jobsList, job{n: n, seed: seed})
		}
	}
	points, err := mapOrdered(context.Background(), len(jobsList), opts.workers(),
		func() struct{} { return struct{}{} },
		func(_ context.Context, _ struct{}, i int) (CostPoint, bool, error) {
			j := jobsList[i]
			cfg := randgen.DefaultConfig()
			cfg.N = j.n
			cfg.States = statesPerMachine
			cfg.Seed = j.seed
			sys, err := randgen.Generate(cfg)
			if err != nil {
				return CostPoint{}, false, err
			}
			label := fmt.Sprintf("rand(N=%d,S=%d,seed=%d)", j.n, statesPerMachine, j.seed)
			p, err := RunCost(label, sys, sampleStride)
			if err != nil {
				return CostPoint{}, false, fmt.Errorf("%s: %w", label, err)
			}
			return p, true, nil
		})
	if err != nil {
		return nil, err
	}
	return points, nil
}
