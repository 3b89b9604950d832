package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

// cmdSweep runs the exhaustive single-transition mutant sweep (experiment
// E5) over a system, fanned out over a worker pool. The result is identical
// for any -workers value; only the wall-clock changes.
func cmdSweep(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("sweep", flag.ContinueOnError)
	suitePath := fs.String("suite", "", "test suite JSON (default: generated transition tour)")
	workers := fs.Int("workers", 0, "parallel diagnosis workers (0 = GOMAXPROCS)")
	equiv := fs.Bool("equiv", false, "check undetected/wrongly-localized mutants for observational equivalence (slow)")
	usePaper := fs.Bool("paper", false, "sweep the built-in Figure 1 paper system instead of a JSON file")
	benchJSON := fs.String("benchjson", "", "measure serial vs. parallel sweep and simulator allocations, write the record to this path (e.g. BENCH_sweep.json)")
	stats := fs.Bool("stats", false, "append a cost report (oracle queries, per-mutant latency, simulator steps)")
	tracePath := fs.String("trace", "", "write a structured JSONL trace of the first traced failing mutants to this path")
	traceFailures := fs.Int("tracefailures", 1, "how many failing mutants to trace (with -trace)")
	distributed := fs.Bool("distributed", false, "shard the sweep over /v1/cluster workers instead of local goroutines")
	coordURL := fs.String("coordinator", "", "base URL of a running coordinator (with -distributed; default: embedded coordinator)")
	workersURLs := fs.String("workers-urls", "", "comma-separated worker base URLs to attach to the embedded coordinator (with -distributed)")
	rangeSize := fs.Int("range-size", 0, "mutant-index shard width per lease (with -distributed; <=0 = coordinator default)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if !*distributed && (*coordURL != "" || *workersURLs != "") {
		return fmt.Errorf("-coordinator and -workers-urls require -distributed")
	}
	var sys *cfsm.System
	var err error
	label := ""
	switch {
	case *usePaper:
		if fs.NArg() != 0 {
			return fmt.Errorf("usage: cfsmdiag sweep -paper [-workers N] (no system file with -paper)")
		}
		sys = paper.MustFigure1()
		label = "figure1"
	case fs.NArg() == 1:
		sys, err = loadSystem(fs.Arg(0))
		if err != nil {
			return err
		}
		label = fs.Arg(0)
	default:
		return fmt.Errorf("usage: cfsmdiag sweep <system.json> [-suite s.json] [-workers N] [-equiv] [-benchjson out.json] [-trace out.jsonl [-tracefailures N]]")
	}

	var suite []cfsm.TestCase
	if *suitePath != "" {
		suite, err = readSuite(*suitePath)
		if err != nil {
			return err
		}
	}
	suite, uncovered, err := testgen.SuiteOrTour(sys, suite)
	if err != nil {
		return err
	}
	if len(uncovered) > 0 {
		fmt.Fprintf(out, "note: %d unreachable transitions not covered by the generated tour\n", len(uncovered))
	}

	effective := *workers
	if effective <= 0 {
		effective = runtime.GOMAXPROCS(0)
		// Note the fallback only when the user explicitly asked for a
		// non-positive count; the silent default is documented flag behavior.
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "workers" {
				fmt.Fprintf(out, "note: -workers %d is not positive; using GOMAXPROCS (%d)\n", *workers, effective)
			}
		})
	}

	if *distributed {
		if *benchJSON != "" || *stats || *tracePath != "" {
			return fmt.Errorf("-benchjson, -stats and -trace are local-sweep features; drop them with -distributed")
		}
		return runDistributedSweep(sys, suite, distSweepConfig{
			coordinator: strings.TrimRight(*coordURL, "/"),
			workerURLs:  splitURLList(*workersURLs),
			rangeSize:   *rangeSize,
			equiv:       *equiv,
		}, out)
	}

	if *benchJSON != "" {
		return writeSweepBench(label, sys, suite, effective, *benchJSON, out)
	}

	opts := experiments.SweepOptions{Workers: effective, CheckEquivalence: *equiv}
	var collector *statsCollector
	if *stats {
		collector = newStatsCollector()
		defer collector.close()
		opts.Registry = collector.reg
	}
	var tr *trace.Tracer
	if *tracePath != "" {
		tr = trace.New()
		opts.Trace = tr
		opts.TraceFailures = *traceFailures
	}
	start := time.Now()
	res, err := experiments.RunSweepOpts(sys, suite, opts)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)
	fmt.Fprintf(out, "swept %d mutants with %d workers in %v (%.0f mutants/sec)\n",
		len(res.Reports), effective, elapsed,
		float64(len(res.Reports))/elapsed.Seconds())
	printSweepOutcomes(out, res.Summary())
	if collector != nil {
		collector.printSweep(out, res)
	}
	if tr != nil {
		if err := writeTraceFile(*tracePath, tr.Events(), trace.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote %d events for %d traced mutants to %s\n",
			tr.Len(), trace.CountKind(tr.Events(), trace.KindSweepMutant, trace.PhaseBegin), *tracePath)
	}
	return nil
}

// printSweepOutcomes prints a sweep's outcome table, the provably-equivalent
// count and the adaptive cost: the lines a local and a distributed sweep
// share.
func printSweepOutcomes(out io.Writer, sum experiments.Summary) {
	for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
		if n := sum.Outcomes[o.String()]; n > 0 {
			fmt.Fprintf(out, "  %-26s %d\n", o.String()+":", n)
		}
	}
	if sum.UndetectedEquivalent > 0 {
		fmt.Fprintf(out, "  (of the undetected, %d are provably equivalent to the spec)\n", sum.UndetectedEquivalent)
	}
	if sum.Detected > 0 {
		fmt.Fprintf(out, "adaptive cost: %.2f additional tests per detected mutant\n",
			float64(sum.AdditionalTests)/float64(sum.Detected))
	}
}

// SweepBenchRow is one worker-count measurement of the sweep benchmark. The
// per-row gomaxprocs records the parallelism actually available when the row
// ran: a "speedup" above 1 is only achievable when gomaxprocs > 1, so the
// record can no longer claim parallel gains it never had (an earlier record
// reported a 0.92x "speedup" measured on a single core without saying so).
type SweepBenchRow struct {
	Workers         int     `json:"workers"`
	GoMaxProcs      int     `json:"gomaxprocs"`
	NsPerOp         int64   `json:"ns_per_op"`
	MutantsPerSec   float64 `json:"mutants_per_sec"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// SweepBenchRecord is the machine-readable performance record emitted by
// `cfsmdiag sweep -benchjson`: a worker-count matrix over the full sweep
// (compiled engine, the default) plus the raw simulator hot path.
type SweepBenchRecord struct {
	System     string          `json:"system"`
	Engine     string          `json:"engine"`
	Mutants    int             `json:"mutants"`
	SuiteCases int             `json:"suite_cases"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Rows       []SweepBenchRow `json:"rows"`

	SimulationNsPerOp     int64 `json:"simulation_ns_per_op"`
	SimulationAllocsPerOp int64 `json:"simulation_allocs_per_op"`
	SimulationBytesPerOp  int64 `json:"simulation_bytes_per_op"`
}

// writeSweepBench benchmarks the sweep at 1, 4 and 8 workers (plus the
// -workers flag's count when it is none of those) and the raw simulator hot
// path, and writes the record as indented JSON.
func writeSweepBench(label string, sys *cfsm.System, suite []cfsm.TestCase, workers int, path string, out io.Writer) error {
	mutants := len(fault.Enumerate(sys))
	rec := SweepBenchRecord{
		System:     label,
		Engine:     "compiled",
		Mutants:    mutants,
		SuiteCases: len(suite),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	counts := []int{1, 4, 8}
	if workers > 0 && workers != 1 && workers != 4 && workers != 8 {
		counts = append(counts, workers)
	}

	sweepBench := func(w int) testing.BenchmarkResult {
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := experiments.RunSweepOpts(sys, suite,
					experiments.SweepOptions{Workers: w}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	var serialNs int64
	for _, w := range counts {
		res := sweepBench(w)
		row := SweepBenchRow{
			Workers:       w,
			GoMaxProcs:    runtime.GOMAXPROCS(0),
			NsPerOp:       res.NsPerOp(),
			MutantsPerSec: float64(mutants) / (float64(res.NsPerOp()) / 1e9),
			AllocsPerOp:   res.AllocsPerOp(),
		}
		if w == 1 {
			serialNs = res.NsPerOp()
		}
		if serialNs > 0 {
			row.SpeedupVsSerial = float64(serialNs) / float64(res.NsPerOp())
		}
		rec.Rows = append(rec.Rows, row)
	}

	sim := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, tc := range suite {
				if _, err := sys.Run(tc); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	rec.SimulationNsPerOp = sim.NsPerOp()
	rec.SimulationAllocsPerOp = sim.AllocsPerOp()
	rec.SimulationBytesPerOp = sim.AllocedBytesPerOp()

	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s (GOMAXPROCS=%d):\n", path, rec.GoMaxProcs)
	for _, row := range rec.Rows {
		fmt.Fprintf(out, "  workers=%d: %.0f mutants/sec (%.2fx vs serial)\n",
			row.Workers, row.MutantsPerSec, row.SpeedupVsSerial)
	}
	fmt.Fprintf(out, "  simulation: %d ns/op, %d allocs/op\n",
		rec.SimulationNsPerOp, rec.SimulationAllocsPerOp)
	return nil
}
