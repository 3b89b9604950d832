// Command perfbench is the repository benchmark. It drives one seeded
// workload against the code of this checkout, checks every output against
// the library, and prints the end-to-end metrics (or, with --trace 1, the
// per-layer breakdown) as one JSON object on the last line of stdout.
//
// Build and run it through run.sh from the repository root:
//
//	bash perfbench/run.sh --workload diagnose_large --seed 1 --seconds 40 --trace 0
//
// README.md in this directory explains the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// Run-shape constants shared by the workloads.
const (
	// openShare is the part of --seconds the HTTP workloads spend in the
	// open loop; the saturation bursts get the rest.
	openShare = 0.75
	// setupRepeats is how often a run sets up from scratch; setup_s is the
	// median.
	setupRepeats = 9
	// warmup is the closed-loop traffic sent before timing, so the model
	// registry, connection pool and heap reach their steady state.
	warmup = time.Second
	// windows is how many slices an HTTP run alternates between open loop
	// and saturation burst. mutants_per_s is the median over the bursts, so
	// a disturbance that hits one slice (a busy neighbour on a shared host)
	// does not move it.
	windows = 8
	// sliceSamples is the fewest open-loop samples a latency slice holds, so
	// that each slice's 90th percentile has ten samples beyond it. The
	// latencies in a run's details are medians over as many such slices as
	// the run fills.
	sliceSamples = 100
)

// workload is one traffic mix. The open-loop rates are about a fifth of the
// mutants_per_s each workload reached when the benchmark was defined
// (README.md says why): at higher load, the capacity swings of a shared
// 2-core host turn into queueing that dominates the latency figures.
type workload struct {
	name string
	rate float64 // open-loop arrivals per second; 0 for the closed sweep
}

var workloads = []workload{
	{"diagnose_large", 25},
	{"diagnose_ports", 110},
	{"sweep", 0},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// stamp records where a result was measured. It is printed before the
// result line, with the run's details.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      int    `json:"trace"`
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func newStamp(opt options, commit string) stamp {
	st := stamp{
		Workload:   opt.workload.name,
		Seed:       opt.seed,
		Seconds:    int(opt.seconds / time.Second),
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
	if opt.trace {
		st.Trace = 1
	}
	return st
}

// options are the command-line settings of one run.
type options struct {
	workload workload
	seed     int64
	seconds  time.Duration
	trace    bool
	server   string // path of the cfsmdiag binary to serve HTTP workloads
	outDir   string // where the traced run writes its spans
}

// outcome is what a workload run returns: the result plus details worth
// printing (sample counts, cross-checks, failure reasons).
type outcome struct {
	res     result
	details map[string]any
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced per-layer run instead of the timing run")
		server  = flag.String("server", "", "cfsmdiag binary serving the HTTP workloads")
		outDir  = flag.String("out", ".", "directory for the traced run's span file")
		commit  = flag.String("commit", "unknown", "commit the binaries were built from")
	)
	flag.Parse()
	w, ok := findWorkload(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload one of %v, --seconds >= 1, --trace 0|1\n", workloadNames())
		return 2
	}
	if w.rate > 0 && *server == "" {
		fmt.Fprintln(os.Stderr, "perfbench: HTTP workloads need -server")
		return 2
	}
	opt := options{
		workload: w,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		trace:    *trace == 1,
		server:   *server,
		outDir:   *outDir,
	}
	st := newStamp(opt, *commit)

	var out outcome
	var err error
	switch {
	case w.rate == 0 && opt.trace:
		out, err = traceSweep(opt)
	case w.rate == 0:
		out, err = runSweep(opt)
	case opt.trace:
		out, err = traceHTTP(opt)
	default:
		out, err = runHTTP(opt)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	printLine("stamp", st)
	printLine("details", out.details)
	line, err := json.Marshal(out.res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encode result: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !out.res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// printLine writes one labelled JSON line ahead of the result.
func printLine(label string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		b = []byte(fmt.Sprintf("%q", err.Error()))
	}
	fmt.Printf("perfbench %s %s\n", label, b)
}

// endToEnd builds the --trace 0 metric set; every workload reports all of
// them, so a later change shows on each workload it touches.
//
// Request latency is not among them: on a 2-vCPU virtual machine of a
// shared host, time the hypervisor gave to other guests (steal) moved the
// open-loop p50 by 30 to 100% between runs of one seed. The CPU time the
// diagnosing process spends per mutant excludes steal and moved by under a
// tenth. Latencies are printed with the run's details and, traced, as
// per-layer metrics.
func endToEnd(cpuMsPerMutant, mutantsPerS, addlTests, addlInputs, setupS, rssMB float64) map[string]metric {
	return map[string]metric{
		"cpu_ms_per_mutant": {cpuMsPerMutant, "ms"},
		"mutants_per_s":     {mutantsPerS, "1/s"},
		"addl_tests":        {addlTests, "count"},
		"addl_inputs":       {addlInputs, "count"},
		"setup_s":           {setupS, "s"},
		"rss_mb":            {rssMB, "MB"},
	}
}

// quantile returns the q-quantile (0..1) of xs by linear interpolation
// between closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// sliceOf returns which of n equal slices of span the offset at falls
// into; offsets at or past the end land in the last slice.
func sliceOf(at, span time.Duration, n int) int {
	k := int(int64(at) * int64(n) / int64(span))
	return max(0, min(k, n-1))
}

// sliceQuantiles cuts span into n equal slices and returns, for each, the
// q-quantile of the values that fall into it.
func sliceQuantiles(at []time.Duration, vals []float64, span time.Duration, n int, q float64) []float64 {
	per := make([][]float64, n)
	for i, v := range vals {
		k := sliceOf(at[i], span, n)
		per[k] = append(per[k], v)
	}
	qs := make([]float64, 0, n)
	for _, p := range per {
		if len(p) > 0 {
			qs = append(qs, quantile(p, q))
		}
	}
	return qs
}

func mean(sum float64, n int) float64 {
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
