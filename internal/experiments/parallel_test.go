package experiments

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

// assertSweepsIdentical fails unless the two sweep results are identical in
// every observable field — the determinism guarantee of the parallel engine.
func assertSweepsIdentical(t *testing.T, label string, serial, parallel SweepResult) {
	t.Helper()
	if !reflect.DeepEqual(serial.Reports, parallel.Reports) {
		if len(serial.Reports) != len(parallel.Reports) {
			t.Fatalf("%s: report count %d vs %d", label, len(serial.Reports), len(parallel.Reports))
		}
		for i := range serial.Reports {
			if serial.Reports[i] != parallel.Reports[i] {
				t.Errorf("%s: report %d differs:\n  serial   %+v\n  parallel %+v",
					label, i, serial.Reports[i], parallel.Reports[i])
			}
		}
		t.FailNow()
	}
	if !reflect.DeepEqual(serial.Counts, parallel.Counts) {
		t.Fatalf("%s: counts %v vs %v", label, serial.Counts, parallel.Counts)
	}
	if serial.Detected != parallel.Detected ||
		serial.UndetectedEquivalent != parallel.UndetectedEquivalent ||
		serial.TotalAdditionalTests != parallel.TotalAdditionalTests ||
		serial.TotalAdditionalInputs != parallel.TotalAdditionalInputs {
		t.Fatalf("%s: aggregates differ: serial {det %d, equiv %d, tests %d, inputs %d} vs parallel {det %d, equiv %d, tests %d, inputs %d}",
			label,
			serial.Detected, serial.UndetectedEquivalent, serial.TotalAdditionalTests, serial.TotalAdditionalInputs,
			parallel.Detected, parallel.UndetectedEquivalent, parallel.TotalAdditionalTests, parallel.TotalAdditionalInputs)
	}
}

// TestRunSweepParallelMatchesSerial is the determinism contract of the
// tentpole: the Workers: 8 sweep over the Figure 1 system must be identical
// — reports, counts, totals — to the Workers: 1 (historical serial) run.
// Running this test under -race also exercises the concurrent read paths of
// the shared specification and suite.
func TestRunSweepParallelMatchesSerial(t *testing.T) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	serial, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	if len(serial.Reports) == 0 {
		t.Fatal("serial sweep produced no reports")
	}
	for _, workers := range []int{2, 8} {
		par, err := RunSweepOpts(spec, suite, SweepOptions{Workers: workers})
		if err != nil {
			t.Fatalf("parallel sweep (workers=%d): %v", workers, err)
		}
		assertSweepsIdentical(t, "paperTS", serial, par)
	}
}

// TestRunSweepParallelWithEquivalence covers the equivalence-checking
// branches (undetected and wrongly-localized mutants) under parallelism,
// with the tour suite that leaves a handful of undetected transfer faults.
func TestRunSweepParallelWithEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep with equivalence checks is slow")
	}
	spec := paper.MustFigure1()
	suite, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) != 0 {
		t.Fatalf("tour left %v uncovered", uncovered)
	}
	serial, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1, CheckEquivalence: true})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	par, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 8, CheckEquivalence: true})
	if err != nil {
		t.Fatalf("parallel sweep: %v", err)
	}
	assertSweepsIdentical(t, "tour+equiv", serial, par)
}

// TestRunSweepDefaultWorkers pins the defaulting rule: Workers: 0 must
// select GOMAXPROCS and still produce the serial result.
func TestRunSweepDefaultWorkers(t *testing.T) {
	if got := (SweepOptions{}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("default workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (SweepOptions{Workers: -3}).workers(); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("negative workers = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := (SweepOptions{Workers: 5}).workers(); got != 5 {
		t.Fatalf("explicit workers = %d, want 5", got)
	}
	spec := paper.MustFigure1()
	suite := paper.TestSuite()
	serial, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial sweep: %v", err)
	}
	def, err := RunSweep(spec, suite, false)
	if err != nil {
		t.Fatalf("default sweep: %v", err)
	}
	assertSweepsIdentical(t, "default-workers", serial, def)
}

// TestCostSweepParallelMatchesSerial checks the E6 scaling runner: the
// worker-pool point computation must return exactly the serial point list.
func TestCostSweepParallelMatchesSerial(t *testing.T) {
	seeds := []int64{1, 2}
	serial, err := CostSweepOpts(3, 3, 8, seeds, SweepOptions{Workers: 1})
	if err != nil {
		t.Fatalf("serial cost sweep: %v", err)
	}
	if len(serial) != 4 {
		t.Fatalf("expected 4 points (N=2,3 × 2 seeds), got %d", len(serial))
	}
	par, err := CostSweepOpts(3, 3, 8, seeds, SweepOptions{Workers: 4})
	if err != nil {
		t.Fatalf("parallel cost sweep: %v", err)
	}
	if !reflect.DeepEqual(serial, par) {
		t.Fatalf("cost points differ:\n  serial   %+v\n  parallel %+v", serial, par)
	}
}

// TestMapOrdered pins the contract every experiment's mutant loop relies on,
// for any worker count: results in job order with skipped jobs left out, the
// first error in index order returned with the results before it, and on
// cancellation the completed prefix with ctx.Err().
func TestMapOrdered(t *testing.T) {
	noState := func() struct{} { return struct{}{} }
	job := func(_ context.Context, _ struct{}, i int) (int, bool, error) {
		switch {
		case i%5 == 0:
			return 0, false, nil
		case i == 37 || i == 60:
			return 0, true, fmt.Errorf("job %d", i)
		}
		return i * i, true, nil
	}
	var want []int
	for i := 0; i < 37; i++ {
		if i%5 != 0 {
			want = append(want, i*i)
		}
	}
	for _, workers := range []int{1, 3, 8} {
		got, err := mapOrdered(context.Background(), 100, workers, noState, job)
		if err == nil || err.Error() != "job 37" {
			t.Fatalf("workers=%d: err = %v, want job 37", workers, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: results %v, want %v", workers, got, want)
		}
		got, err = mapOrdered(context.Background(), 3, workers, noState, job)
		if err != nil || !reflect.DeepEqual(got, []int{1, 4}) {
			t.Fatalf("workers=%d: short run = %v, %v; want [1 4]", workers, got, err)
		}

		ctx, cancel := context.WithCancel(context.Background())
		got, err = mapOrdered(ctx, 100, workers, noState, func(_ context.Context, _ struct{}, i int) (int, bool, error) {
			if i == 10 {
				cancel()
			}
			return i, true, nil
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: canceled run err = %v", workers, err)
		}
		if len(got) < 11 || len(got) == 100 {
			t.Fatalf("workers=%d: canceled run kept %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i {
				t.Fatalf("workers=%d: canceled run is not a prefix: %v", workers, got)
			}
		}
	}
}
