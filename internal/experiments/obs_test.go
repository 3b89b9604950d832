package experiments

import (
	"context"
	"errors"
	"sync"
	"testing"

	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
)

// TestRunSweepContextCanceled: a pre-canceled context stops the sweep before
// any mutant is diagnosed, in both the serial and the parallel engine.
func TestRunSweepContextCanceled(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		res, err := RunSweepContext(ctx, spec, suite, SweepOptions{Workers: workers})
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		if len(res.Reports) != 0 {
			t.Errorf("workers=%d: %d reports under a canceled context", workers, len(res.Reports))
		}
	}
}

// TestRunSweepContextMidCancel cancels after a few mutants and checks the
// partial result is a prefix of the full sweep.
func TestRunSweepContextMidCancel(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	full, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	reg := obs.New()
	RegisterSweepMetrics(reg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	const after = 3
	res, err := RunSweepContext(cancelAfter{ctx, cancel, reg.Histogram(metricSweepMutant, "", obs.DefaultLatencyBuckets), after},
		spec, suite, SweepOptions{Workers: 1, Registry: reg})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(res.Reports) != after || after >= len(full.Reports) {
		t.Fatalf("canceled sweep produced %d of %d reports, want %d", len(res.Reports), len(full.Reports), after)
	}
	for i, r := range res.Reports {
		if r.Fault != full.Reports[i].Fault || r.Outcome != full.Reports[i].Outcome {
			t.Fatalf("report %d diverged from the serial prefix", i)
		}
	}
}

// cancelAfter cancels itself from inside the sweep once the per-mutant
// histogram has counted n reports: the sweep consults ctx.Err() before it
// claims each mutant, so a one-worker sweep stops right after the n-th,
// however fast the machine.
type cancelAfter struct {
	context.Context
	cancel  context.CancelFunc
	reports *obs.Histogram
	n       uint64
}

func (c cancelAfter) Err() error {
	if c.reports.Count() >= c.n {
		c.cancel()
	}
	return c.Context.Err()
}

// TestSweepMetrics: a parallel sweep with a registry records per-mutant
// latencies, outcome counts and the additional-test cost, and leaves the
// busy gauge at zero.
func TestSweepMetrics(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	reg := obs.New()
	RegisterSweepMetrics(reg)
	res, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 4, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	if got := reg.Histogram(metricSweepMutant, "", obs.DefaultLatencyBuckets).Count(); got != uint64(len(res.Reports)) {
		t.Errorf("mutant histogram count = %d, want %d", got, len(res.Reports))
	}
	if got := reg.Histogram(metricSweepDuration, "", obs.DefaultLatencyBuckets).Count(); got != 1 {
		t.Errorf("sweep duration count = %d, want 1", got)
	}
	total := int64(0)
	for o := OutcomeUndetected; o <= OutcomeInconsistent; o++ {
		total += reg.Counter(metricSweepMutants, "", obs.L("outcome", o.String())).Value()
	}
	if total != int64(len(res.Reports)) {
		t.Errorf("outcome counters sum = %d, want %d", total, len(res.Reports))
	}
	if got := reg.Counter(metricSweepAddlTests, "").Value(); got != int64(res.TotalAdditionalTests) {
		t.Errorf("additional tests counter = %d, want %d", got, res.TotalAdditionalTests)
	}
	if got := reg.Gauge(metricSweepBusy, "").Value(); got != 0 {
		t.Errorf("busy gauge = %d after sweep, want 0", got)
	}
	if got := reg.Gauge(metricSweepWorkers, "").Value(); got != 4 {
		t.Errorf("workers gauge = %d, want 4", got)
	}
}

// TestSweepMetricsDeterminism: instrumentation must not perturb results —
// a sweep with a registry equals one without, for any worker count.
func TestSweepMetricsDeterminism(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	plain, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	instrumented, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 3, Registry: obs.New()})
	if err != nil {
		t.Fatal(err)
	}
	if len(plain.Reports) != len(instrumented.Reports) {
		t.Fatalf("report counts differ: %d vs %d", len(plain.Reports), len(instrumented.Reports))
	}
	for i := range plain.Reports {
		if plain.Reports[i] != instrumented.Reports[i] {
			t.Fatalf("report %d differs with instrumentation: %+v vs %+v",
				i, plain.Reports[i], instrumented.Reports[i])
		}
	}
}

// TestConcurrentSweepSharedRegistry runs two parallel sweeps plus the core
// pipeline against ONE registry (run under -race): registry updates from
// many workers must be safe.
func TestConcurrentSweepSharedRegistry(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	reg := obs.New()
	RegisterSweepMetrics(reg)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 4, Registry: reg}); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if got := reg.Histogram(metricSweepDuration, "", obs.DefaultLatencyBuckets).Count(); got != 2 {
		t.Errorf("sweep duration count = %d, want 2", got)
	}
}
