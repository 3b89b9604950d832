// Command cfsmdiag validates, simulates, mutates and diagnoses systems of
// communicating finite state machines stored as JSON files.
//
// Usage:
//
//	cfsmdiag validate    <system.json>                    stats + warnings
//	cfsmdiag dot         <system.json>                    Graphviz rendering
//	cfsmdiag seq         <system.json> -inputs "R, a^1"   Mermaid sequence diagram
//	cfsmdiag simulate    <system.json> -inputs "R, a^1, c'^3"
//	cfsmdiag tour        <system.json> [-maxlen N]        transition-tour suite
//	cfsmdiag verifysuite <system.json> [-minimize]        fault-model-complete suite
//	cfsmdiag detect      <system.json> [-suite s] [-address]  detection report
//	cfsmdiag mutants     <system.json>                    enumerate faults
//	cfsmdiag sweep       <system.json>|-paper [-workers N] [-equiv] [-benchjson f]
//	                     exhaustive parallel mutant sweep (E5); with
//	                     [-distributed -coordinator URL | -distributed
//	                     -workers-urls u1,u2] the sweep is sharded over
//	                     /v1/cluster workers instead of local goroutines
//	cfsmdiag inject      <system.json> -fault "M1.t7:output=c'"
//	cfsmdiag diagnose    -spec s.json -iut i.json | -paper  [-suite t.json] [-report]
//	                     [-ports portmap.json]  diagnose from per-port local
//	                     projections only (distributed observation, E18)
//	                     [-narrate] [-trace out.jsonl] [-chrome out.json] [-explain] [-stats]
//	                     [-oracle-timeout d] [-oracle-retries N] [-oracle-votes K] [-oracle-seed S]
//	                     [-chaos-drop p] [-chaos-garble p] [-chaos-transient p] [-chaos-seed S]
//	cfsmdiag replay      <trace.jsonl> [-explain] [-chrome out.json]
//	                     re-run a recorded diagnosis offline (zero live oracle calls)
//	cfsmdiag record      <system.json> -suite t.json      observation log
//	cfsmdiag analyze     -spec s.json -suite t.json -obs o.json   offline analysis
//	cfsmdiag serve       [-addr host:port] [-timeout d] [-pprof] [-tracing=false]
//	                     [-logjson] [-quiet]
//	                     [-oracle-timeout d] [-oracle-retries N] [-oracle-votes K]
//	                     [-jobs] [-jobs-dir d] [-jobs-workers N] [-jobs-queue N]
//	                     [-jobs-tenant-rate R] [-jobs-tenant-burst N]
//	                     [-cluster] [-cluster-dir d] [-lease-ttl d] [-range-size N]
//	                     [-worker -coordinator u1,u2 [-worker-name s] [-poll d]]
//	                     versioned JSON-over-HTTP service with /metrics + /healthz;
//	                     -cluster mounts the /v1/cluster sweep coordinator and
//	                     -worker turns the process into a range-pulling sweep peer
//	cfsmdiag jobs        <submit|status|result|cancel|list|watch|bench> ...
//	                     client for the /v1/jobs batch API of a running service
//	                     (watch and submit -wait follow the SSE event stream,
//	                     falling back to long-polling, then interval polling);
//	                     bench runs the E13 throughput experiment in-process
//	cfsmdiag loadgen     [-out BENCH_load.json] [-seed S] [-rates r1,r2,...]
//	                     [-step d] [-base URL] [-gate f [-tolerance-p99 f]
//	                     [-tolerance-goodput f] [-tolerance-body f]]
//	                     E16: seeded open-loop load
//	                     harness; without -base it stands up the service
//	                     in-process per ladder step and writes the saturation-
//	                     knee record, with -gate it compares against a committed
//	                     baseline and exits non-zero on SLO regressions
//	cfsmdiag convert     <model.json|model.bin> -o <out>   convert between the
//	                     JSON and versioned binary model formats
//	cfsmdiag info        <model.json|model.bin>  header, content hash and shape
//	cfsmdiag compilebench [-out BENCH_compile.json]  E14: compile cost, serial
//	                     sweep and model-load record
//	cfsmdiag clusterbench [-out BENCH_cluster.json] [-workers N] [-sweeps N]
//	                     E15: multi-process distributed-sweep scaling record;
//	                     re-execs itself as GOMAXPROCS=1 worker processes and
//	                     chaos-kills one mid-sweep to prove exactly-once merging
//
// Every subcommand that takes a system file accepts either format; binary
// models carry a content hash that is verified on load.
//
// The diagnose subcommand runs the full algorithm of the paper: it executes
// the suite (a generated transition tour when -suite is omitted) against the
// IUT, analyzes the symptoms, and adaptively localizes the fault, printing
// the Section 4-style walkthrough. With -trace it also records a structured
// JSONL trace of every pipeline step; the replay subcommand re-runs the
// adaptive localization from such a trace, answering every diagnostic test
// from the recording instead of a live implementation.
//
// The -oracle-* flags harden the diagnosis against unreliable observations
// (internal/resilient): a per-execution timeout, bounded retries with
// exponential backoff and seeded jitter, and K-way majority voting.
// Observations that stay unconfirmed degrade the run to the inconclusive
// verdict instead of convicting on bad evidence. The -chaos-* flags splice a
// seeded observation-fault injector in front of the retry layer for chaos
// testing (EXPERIMENTS.md E12).
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/cluster"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
	"cfsmdiag/internal/replay"
	"cfsmdiag/internal/report"
	"cfsmdiag/internal/resilient"
	"cfsmdiag/internal/server"
	"cfsmdiag/internal/testgen"
	"cfsmdiag/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "cfsmdiag:", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cfsmdiag <validate|dot|simulate|tour|mutants|sweep|inject|diagnose|replay|seq|verifysuite|detect|analyze|record|serve|jobs|loadgen|convert|info|compilebench|clusterbench> ...")
	}
	switch args[0] {
	case "validate":
		return cmdValidate(args[1:], out)
	case "dot":
		return cmdDot(args[1:], out)
	case "simulate":
		return cmdSimulate(args[1:], out)
	case "tour":
		return cmdTour(args[1:], out)
	case "mutants":
		return cmdMutants(args[1:], out)
	case "sweep":
		return cmdSweep(args[1:], out)
	case "inject":
		return cmdInject(args[1:], out)
	case "diagnose":
		return cmdDiagnose(args[1:], out)
	case "replay":
		return cmdReplay(args[1:], out)
	case "seq":
		return cmdSeq(args[1:], out)
	case "verifysuite":
		return cmdVerifySuite(args[1:], out)
	case "detect":
		return cmdDetect(args[1:], out)
	case "analyze":
		return cmdAnalyze(args[1:], out)
	case "record":
		return cmdRecord(args[1:], out)
	case "serve":
		return cmdServe(args[1:], out)
	case "jobs":
		return cmdJobs(args[1:], out)
	case "loadgen":
		return cmdLoadgen(args[1:], out)
	case "convert":
		return cmdConvert(args[1:], out)
	case "info":
		return cmdInfo(args[1:], out)
	case "compilebench":
		return cmdCompileBench(args[1:], out)
	case "clusterbench":
		return cmdClusterBench(args[1:], out)
	default:
		return fmt.Errorf("unknown subcommand %q", args[0])
	}
}

// loadSystem accepts both model formats: every subcommand that reads a
// system file also accepts the binary form produced by cfsmdiag convert.
func loadSystem(path string) (*cfsm.System, error) {
	return loadSystemAny(path)
}

func cmdValidate(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cfsmdiag validate <system.json>")
	}
	sys, err := loadSystem(args[0])
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "ok: %d machines, %d transitions\n", sys.N(), sys.NumTransitions())
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		fmt.Fprintf(out, "  %s: %d states, %d transitions, IEO=%v IIO=%v\n",
			m.Name(), len(m.States()), m.NumTransitions(), sys.IEO(i), sys.IIO(i))
	}
	for _, w := range core.CheckAssumptions(sys) {
		fmt.Fprintf(out, "  warning %s\n", w)
	}
	return nil
}

func cmdDot(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cfsmdiag dot <system.json>")
	}
	sys, err := loadSystem(args[0])
	if err != nil {
		return err
	}
	fmt.Fprint(out, sys.DOT())
	return nil
}

func cmdSimulate(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("simulate", flag.ContinueOnError)
	inputs := fs.String("inputs", "", "comma-separated inputs, e.g. \"R, a^1, c'^3\"")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *inputs == "" {
		return fmt.Errorf("usage: cfsmdiag simulate <system.json> -inputs \"R, a^1\"")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	ins, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	tc := cfsm.TestCase{Name: "cli", Inputs: ins}
	obs, steps, err := sys.RunTrace(tc)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "inputs:  %s\n", cfsm.FormatInputs(ins))
	fmt.Fprintf(out, "outputs: %s\n", cfsm.FormatObs(obs))
	for i, ex := range steps {
		names := "-"
		for k, e := range ex {
			if k == 0 {
				names = e.Trans.String()
			} else {
				names += " ; " + e.Trans.String()
			}
		}
		fmt.Fprintf(out, "  %-8s -> %-8s via %s\n", ins[i], obs[i], names)
	}
	return nil
}

func cmdTour(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tour", flag.ContinueOnError)
	maxLen := fs.Int("maxlen", 0, "maximum inputs per test case (0 = unbounded)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag tour <system.json> [-maxlen N]")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	suite, uncovered := testgen.Tour(sys, *maxLen)
	data, err := marshalSuite(suite)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	if len(uncovered) > 0 {
		fmt.Fprintf(out, "// uncovered (unreachable) transitions: %v\n", uncovered)
	}
	return nil
}

func cmdMutants(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cfsmdiag mutants <system.json>")
	}
	sys, err := loadSystem(args[0])
	if err != nil {
		return err
	}
	faults := fault.Enumerate(sys)
	for _, f := range faults {
		fmt.Fprintln(out, f.Describe(sys))
	}
	fmt.Fprintf(out, "total: %d single-transition faults\n", len(faults))
	return nil
}

func cmdInject(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("inject", flag.ContinueOnError)
	faultSpec := fs.String("fault", "", "fault specifier, e.g. \"M1.t7:output=c'\" or \"M3.t\\\"4:to=s0\"")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *faultSpec == "" {
		return fmt.Errorf("usage: cfsmdiag inject <system.json> -fault \"M.t:output=o,to=s\"")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	ref, output, to, err := parseFault(sys, *faultSpec)
	if err != nil {
		return err
	}
	mutant, err := sys.Rewire(ref, output, to)
	if err != nil {
		return err
	}
	data, err := mutant.MarshalJSON()
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	return nil
}

func cmdDiagnose(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diagnose", flag.ContinueOnError)
	specPath := fs.String("spec", "", "specification system JSON")
	iutPath := fs.String("iut", "", "implementation-under-test system JSON")
	suitePath := fs.String("suite", "", "test suite JSON (default: generated transition tour)")
	usePaper := fs.Bool("paper", false, "diagnose the built-in Figure 1 walkthrough (M3.t\"4 transfer fault) instead of -spec/-iut files")
	asMarkdown := fs.Bool("report", false, "emit a Markdown diagnosis report instead of the plain walkthrough")
	narrate := fs.Bool("narrate", false, "narrate the adaptive localization as it runs")
	portsPath := fs.String("ports", "", "port-map JSON assigning machines to named observer sites ({\"M1\": \"site-a\", ...}); diagnosis then reasons over per-port local projections only")
	tracePath := fs.String("trace", "", "write a structured JSONL trace to this path (replayable with `cfsmdiag replay`)")
	chromePath := fs.String("chrome", "", "write a Chrome trace-event file to this path (load in Perfetto or chrome://tracing)")
	explain := fs.Bool("explain", false, "append the Markdown explanation report (the paper's Section 4 narrative)")
	stats := fs.Bool("stats", false, "append a cost report (oracle queries, refinement rounds, simulator steps, wall time)")
	oracleTimeout := fs.Duration("oracle-timeout", 0, "per-execution oracle timeout (0 = none); enables the resilient retry layer")
	oracleRetries := fs.Int("oracle-retries", 0, "failed oracle executions tolerated per query; enables the resilient retry layer")
	oracleVotes := fs.Int("oracle-votes", 0, "successful executions majority-voted per diagnostic test (<=1 = no voting)")
	oracleSeed := fs.Int64("oracle-seed", 0, "seed for the retry layer's backoff jitter")
	chaosDrop := fs.Float64("chaos-drop", 0, "chaos: probability of dropping one observation per execution")
	chaosGarble := fs.Float64("chaos-garble", 0, "chaos: probability of garbling one observation per execution")
	chaosTransient := fs.Float64("chaos-transient", 0, "chaos: probability of a transient oracle error per execution")
	chaosSeed := fs.Int64("chaos-seed", 0, "seed for the chaos fault schedule")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	var spec, iut *cfsm.System
	var err error
	switch {
	case *usePaper:
		if *specPath != "" || *iutPath != "" {
			return fmt.Errorf("-paper replaces -spec and -iut")
		}
		spec = paper.MustFigure1()
		if iut, err = paper.FaultyImplementation(); err != nil {
			return err
		}
	case *specPath != "" && *iutPath != "":
		if spec, err = loadSystem(*specPath); err != nil {
			return fmt.Errorf("spec: %w", err)
		}
		if iut, err = loadSystem(*iutPath); err != nil {
			return fmt.Errorf("iut: %w", err)
		}
	default:
		return fmt.Errorf("usage: cfsmdiag diagnose -spec <spec.json> -iut <iut.json> | -paper  [-suite <suite.json>] [-trace out.jsonl] [-explain]")
	}
	var pm ports.Map
	usePorts := *portsPath != ""
	if usePorts {
		data, err := os.ReadFile(*portsPath)
		if err != nil {
			return fmt.Errorf("ports: %w", err)
		}
		if pm, err = ports.FromJSON(data, spec); err != nil {
			return err
		}
	}
	var suite []cfsm.TestCase
	switch {
	case *suitePath != "":
		data, err := os.ReadFile(*suitePath)
		if err != nil {
			return err
		}
		suite, err = parseSuite(data)
		if err != nil {
			return err
		}
	case *usePaper:
		suite = paper.TestSuite()
	default:
		var uncovered []cfsm.Ref
		suite, uncovered = testgen.Tour(spec, 0)
		if len(uncovered) > 0 {
			fmt.Fprintf(out, "note: %d unreachable transitions not covered by the generated tour\n", len(uncovered))
		}
	}
	var collector *statsCollector
	var opts []core.Option
	if *stats {
		collector = newStatsCollector()
		defer collector.close()
		opts = append(opts, core.WithRegistry(collector.reg))
	}
	var tr *trace.Tracer
	if *tracePath != "" || *chromePath != "" {
		tr = trace.New()
		opts = append(opts, core.WithTrace(tr))
	}
	// The oracle chain mirrors the deployment stack: the system under test,
	// optionally perturbed by the chaos injector, optionally hardened by the
	// resilient retry layer. Suite execution and the adaptive phase both go
	// through the full chain, so injected faults on suite cases are absorbed
	// (or surfaced as an unreliable-observation error) before analysis.
	base := &core.SystemOracle{Sys: iut}
	var oracle core.Oracle = base
	var injector *resilient.FaultInjector
	if *chaosDrop > 0 || *chaosGarble > 0 || *chaosTransient > 0 {
		injector = resilient.NewFaultInjector(oracle, resilient.InjectConfig{
			Drop: *chaosDrop, Garble: *chaosGarble, Transient: *chaosTransient,
			Seed: *chaosSeed, Tracer: tr,
		})
		oracle = injector
	}
	var hardened *resilient.RetryOracle
	if *oracleTimeout > 0 || *oracleRetries > 0 || *oracleVotes > 1 {
		cfg := resilient.RetryConfig{
			Timeout: *oracleTimeout, Retries: *oracleRetries, Votes: *oracleVotes,
			Seed: *oracleSeed, Tracer: tr,
		}
		if collector != nil {
			cfg.Registry = collector.reg
		}
		hardened = resilient.NewRetryOracle(oracle, cfg)
		oracle = hardened
	}
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := oracle.Execute(tc)
		if err != nil {
			if errors.Is(err, core.ErrUnreliableObservation) {
				// Step 6 can degrade to the inconclusive verdict, but Steps 1–5
				// need a trusted baseline: without suite observations there is
				// nothing to analyze.
				return fmt.Errorf("suite case %s: %w — no trusted baseline for analysis; raise -oracle-retries/-oracle-votes or lower the -chaos-* rates", tc.Name, err)
			}
			return err
		}
		observed[i] = obs
	}
	// The replay header (spec, suite, observed outputs) goes in front of the
	// analysis events so the JSONL file is a self-contained recorded run.
	if err := replay.Record(tr, spec, suite, observed); err != nil {
		return err
	}
	// The ports layer composes outside the resilient chain: projections are
	// taken of whatever the (possibly retried and voted) oracle reports.
	portsOpts := func() []ports.Option {
		po := []ports.Option{ports.WithCoreOptions(opts...)}
		if collector != nil {
			po = append(po, ports.WithRegistry(collector.reg))
		}
		if tr != nil {
			po = append(po, ports.WithTrace(tr))
		}
		return po
	}
	var a *core.Analysis
	var prep *ports.Report
	if usePorts {
		a, prep, err = ports.AnalyzeObserved(spec, suite, observed, pm, portsOpts()...)
	} else {
		a, err = core.Analyze(spec, suite, observed, opts...)
	}
	if err != nil {
		return err
	}
	if *narrate {
		opts = append(opts, core.WithTracer(&core.TextTracer{W: out, Spec: spec}))
	}
	var loc *core.Localization
	if usePorts {
		var lrep *ports.Report
		loc, lrep, err = ports.Localize(a, oracle, pm, portsOpts()...)
		if lrep != nil && prep != nil {
			prep.LocallyAmbiguousCandidates = lrep.LocallyAmbiguousCandidates
		}
	} else {
		loc, err = core.Localize(a, oracle, opts...)
	}
	if err != nil {
		return err
	}
	if *asMarkdown {
		md, err := report.Markdown(loc)
		if err != nil {
			return err
		}
		fmt.Fprint(out, md)
	} else {
		fmt.Fprint(out, a.Report())
		fmt.Fprint(out, loc.Report())
		fmt.Fprintf(out, "cost: %d tests, %d inputs (suite: %d tests)\n", base.Tests, base.Inputs, len(suite))
	}
	if prep != nil && !prep.Single {
		fmt.Fprintf(out, "ports: %d observers (%s); %d of %d cases ambiguous, %d consistent interleavings considered\n",
			len(prep.Ports), strings.Join(prep.Ports, ", "),
			prep.AmbiguousCases, prep.Cases, prep.InterleavingsExplored)
		if len(prep.LocallyAmbiguousCandidates) > 0 {
			var names []string
			for _, r := range prep.LocallyAmbiguousCandidates {
				names = append(names, spec.RefString(r))
			}
			fmt.Fprintf(out, "ports: %d candidates distinguishable only under global observation: %s\n",
				len(names), strings.Join(names, ", "))
		}
	}
	if injector != nil {
		fmt.Fprintf(out, "chaos: %d faults injected (%s, seed %d)\n",
			injector.InjectedTotal(), resilient.InjectConfig{
				Drop: *chaosDrop, Garble: *chaosGarble, Transient: *chaosTransient,
			}.Describe(), *chaosSeed)
	}
	if hardened != nil {
		st := hardened.Stats()
		fmt.Fprintf(out, "resilient: %d queries, %d attempts, %d retries, %d timeouts, %d vote disagreements, %d unreliable\n",
			st.Queries, st.Attempts, st.Retries, st.Timeouts, st.Disagreements, st.Unreliable)
	}
	if *explain {
		fmt.Fprint(out, report.Explanation(loc))
	}
	if collector != nil {
		collector.printDiagnose(out, base, loc)
	}
	if *tracePath != "" {
		if err := writeTraceFile(*tracePath, tr.Events(), trace.WriteJSONL); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote %d events to %s (replay with `cfsmdiag replay %s`)\n",
			tr.Len(), *tracePath, *tracePath)
	}
	if *chromePath != "" {
		if err := writeTraceFile(*chromePath, tr.Events(), trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote Chrome trace to %s (load in Perfetto or chrome://tracing)\n", *chromePath)
	}
	return nil
}

// writeTraceFile exports events to path with the given exporter.
func writeTraceFile(path string, events []trace.Event, write func(io.Writer, []trace.Event) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, events); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// cmdReplay re-runs a recorded diagnosis offline. The JSONL trace doubles as
// a canned oracle — every diagnostic test Step 6 asks for is answered from
// the recording — so the localization reproduces without the implementation.
func cmdReplay(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("replay", flag.ContinueOnError)
	explain := fs.Bool("explain", false, "append the Markdown explanation report")
	chromePath := fs.String("chrome", "", "also export the recorded trace as a Chrome trace-event file")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag replay <trace.jsonl> [-explain] [-chrome out.json]")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	n, err := trace.ValidateJSONL(bytes.NewReader(data))
	if err != nil {
		if errors.Is(err, trace.ErrTruncatedTrace) {
			return fmt.Errorf("%s: %w — the recording was cut short; re-record the run", fs.Arg(0), err)
		}
		return fmt.Errorf("%s: invalid trace: %w", fs.Arg(0), err)
	}
	events, err := trace.ReadJSONL(bytes.NewReader(data))
	if err != nil {
		return err
	}
	rec, err := replay.Load(events)
	if err != nil {
		if errors.Is(err, trace.ErrTruncatedTrace) {
			return fmt.Errorf("%s: %w — the recording was cut short; re-record the run", fs.Arg(0), err)
		}
		return err
	}
	loc, oracle, err := rec.Localize()
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "replaying %d recorded events: %d suite cases, %d canned diagnostic answers\n",
		n, len(rec.Suite), len(rec.Answers))
	fmt.Fprint(out, loc.Analysis.Report())
	fmt.Fprint(out, loc.Report())
	fmt.Fprintf(out, "replay: %d oracle queries served from the recording, 0 live executions\n", oracle.Queries)
	if err := rec.Check(loc); err != nil {
		if errors.Is(err, trace.ErrTruncatedTrace) {
			// A trace without a recorded verdict cannot diverge — it was cut
			// short before the verdict event; do not misreport divergence.
			return fmt.Errorf("%s: %w — the recording was cut short; re-record the run", fs.Arg(0), err)
		}
		return fmt.Errorf("replay diverged from the recorded run: %w", err)
	}
	fmt.Fprintln(out, "replay: verdict matches the recorded run")
	if *explain {
		fmt.Fprint(out, report.Explanation(loc))
	}
	if *chromePath != "" {
		if err := writeTraceFile(*chromePath, events, trace.WriteChromeTrace); err != nil {
			return err
		}
		fmt.Fprintf(out, "trace: wrote Chrome trace to %s\n", *chromePath)
	}
	return nil
}

func cmdSeq(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("seq", flag.ContinueOnError)
	inputs := fs.String("inputs", "", "comma-separated inputs, e.g. \"R, a^1, c'^3\"")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *inputs == "" {
		return fmt.Errorf("usage: cfsmdiag seq <system.json> -inputs \"R, a^1\"")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	ins, err := parseInputs(*inputs)
	if err != nil {
		return err
	}
	diag, err := sys.SequenceDiagram(cfsm.TestCase{Name: "cli", Inputs: ins})
	if err != nil {
		return err
	}
	fmt.Fprint(out, diag)
	return nil
}

func cmdVerifySuite(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("verifysuite", flag.ContinueOnError)
	minimize := fs.Bool("minimize", false, "greedily drop test cases that add no detection power")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag verifysuite <system.json> [-minimize]")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	suite, undetectable := testgen.VerificationSuite(sys)
	if *minimize {
		suite, err = testgen.MinimizeSuite(sys, suite)
		if err != nil {
			return err
		}
	}
	data, err := marshalSuite(suite)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	for _, f := range undetectable {
		fmt.Fprintf(out, "// undetectable: %s\n", f.Describe(sys))
	}
	return nil
}

func cmdDetect(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("detect", flag.ContinueOnError)
	suitePath := fs.String("suite", "", "test suite JSON (default: generated transition tour)")
	address := fs.Bool("address", false, "include the addressing-fault extension")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: cfsmdiag detect <system.json> [-suite s.json] [-address]")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	var suite []cfsm.TestCase
	if *suitePath != "" {
		data, err := os.ReadFile(*suitePath)
		if err != nil {
			return err
		}
		suite, err = parseSuite(data)
		if err != nil {
			return err
		}
	} else {
		suite, _ = testgen.Tour(sys, 0)
	}
	report, err := testgen.Detection(sys, suite, *address, true)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "fault space: %d; detected: %d; missed: %d; undetectable: %d; rate: %.1f%%\n",
		report.Faults, len(report.Detected), len(report.Missed),
		len(report.Undetectable), 100*report.DetectionRate())
	for _, f := range report.Missed {
		fmt.Fprintf(out, "  missed: %s\n", f.Describe(sys))
	}
	for _, f := range report.Undetectable {
		fmt.Fprintf(out, "  undetectable: %s\n", f.Describe(sys))
	}
	return nil
}

// cmdAnalyze performs offline diagnosis: Steps 1–5 against a recorded
// observation log (no interactive oracle), then prints the planned next
// diagnostic tests with per-hypothesis predictions.
func cmdAnalyze(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("analyze", flag.ContinueOnError)
	specPath := fs.String("spec", "", "specification system JSON")
	suitePath := fs.String("suite", "", "test suite JSON")
	obsPath := fs.String("obs", "", "recorded observations JSON")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *specPath == "" || *suitePath == "" || *obsPath == "" {
		return fmt.Errorf("usage: cfsmdiag analyze -spec <spec.json> -suite <suite.json> -obs <obs.json>")
	}
	spec, err := loadSystem(*specPath)
	if err != nil {
		return fmt.Errorf("spec: %w", err)
	}
	suiteData, err := os.ReadFile(*suitePath)
	if err != nil {
		return err
	}
	suite, err := parseSuite(suiteData)
	if err != nil {
		return err
	}
	obsData, err := os.ReadFile(*obsPath)
	if err != nil {
		return err
	}
	observed, err := parseObservations(obsData)
	if err != nil {
		return err
	}
	a, err := core.Analyze(spec, suite, observed)
	if err != nil {
		return err
	}
	fmt.Fprint(out, a.Report())
	planned := core.SuggestNextTests(a)
	if len(planned) == 0 {
		if len(a.Diagnoses) == 1 {
			fmt.Fprintf(out, "Single diagnosis — no further tests needed: %s\n",
				a.Diagnoses[0].Describe(spec))
		}
		return nil
	}
	fmt.Fprintln(out, "Suggested next diagnostic tests:")
	for _, p := range planned {
		fmt.Fprintf(out, "  target %s: apply \"%s\"\n",
			spec.RefString(p.Target), cfsm.FormatInputs(p.Test.Inputs))
		for _, pred := range p.Predictions {
			label := "if correct"
			if pred.Fault != nil {
				label = "if " + pred.Fault.Describe(spec)
			}
			fmt.Fprintf(out, "    %-60s -> \"%s\"\n", label, cfsm.FormatObs(pred.Expected))
		}
	}
	return nil
}

// cmdRecord executes a suite against a system and writes the observation
// log — the producer side of the offline workflow (and a convenient way to
// build fixtures from mutants).
func cmdRecord(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	suitePath := fs.String("suite", "", "test suite JSON")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *suitePath == "" {
		return fmt.Errorf("usage: cfsmdiag record <system.json> -suite <suite.json>")
	}
	sys, err := loadSystem(fs.Arg(0))
	if err != nil {
		return err
	}
	suiteData, err := os.ReadFile(*suitePath)
	if err != nil {
		return err
	}
	suite, err := parseSuite(suiteData)
	if err != nil {
		return err
	}
	observed, err := sys.RunSuite(suite)
	if err != nil {
		return err
	}
	data, err := marshalObservations(observed)
	if err != nil {
		return err
	}
	fmt.Fprintln(out, string(data))
	return nil
}

// cmdServe runs the JSON-over-HTTP diagnosis service (internal/server):
// /v1/validate, /v1/suite, /v1/analyze, /v1/diagnose, /healthz and /metrics.
// With -jobs it also mounts the durable /v1/jobs batch API, with -cluster the
// /v1/cluster distributed-sweep coordinator, and with -worker the process
// doubles as a sweep worker that pulls mutant ranges from -coordinator peers
// (plus POST /v1/cluster/attach for ad-hoc attachment). It shuts down
// gracefully on SIGINT/SIGTERM, draining in-flight requests and
// running jobs before persisting the queue.
func cmdServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "listen address")
	timeout := fs.Duration("timeout", time.Minute, "per-request timeout (0 = none)")
	pprofOn := fs.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	tracing := fs.Bool("tracing", true, "honor ?trace=1 on /v1/diagnose (inline structured traces)")
	logJSON := fs.Bool("logjson", false, "emit access logs as JSON instead of text")
	quiet := fs.Bool("quiet", false, "disable access logging")
	oracleTimeout := fs.Duration("oracle-timeout", 0, "per-execution oracle timeout for diagnoses (0 = none); enables the resilient retry layer")
	oracleRetries := fs.Int("oracle-retries", 0, "failed oracle executions tolerated per diagnostic query")
	oracleVotes := fs.Int("oracle-votes", 0, "successful executions majority-voted per diagnostic test (<=1 = no voting)")
	jobsOn := fs.Bool("jobs", false, "mount the /v1/jobs batch diagnosis API")
	jobsDir := fs.String("jobs-dir", "", "durability directory for the job queue (WAL + snapshots; implies -jobs, empty = in-memory only)")
	jobsWorkers := fs.Int("jobs-workers", 0, "job worker pool size (<=0 = GOMAXPROCS)")
	jobsQueue := fs.Int("jobs-queue", 0, "admission-control queue depth (<=0 = default)")
	jobsTenantRate := fs.Float64("jobs-tenant-rate", 0, "per-tenant fair admission: submissions per second each tenant may queue (0 = off)")
	jobsTenantBurst := fs.Int("jobs-tenant-burst", 0, "per-tenant burst capacity (<=0 = about one second of -jobs-tenant-rate)")
	clusterOn := fs.Bool("cluster", false, "mount the /v1/cluster distributed-sweep coordinator")
	clusterDir := fs.String("cluster-dir", "", "durability directory for the sweep journal (implies -cluster, empty = in-memory only)")
	leaseTTL := fs.Duration("lease-ttl", 0, "how long a leased mutant range stays fenced to one worker before it is replayed (0 = coordinator default)")
	rangeSize := fs.Int("range-size", 0, "default mutant-index shard width per lease (<=0 = coordinator default)")
	workerOn := fs.Bool("worker", false, "pull sweep ranges from -coordinator peers and serve POST /v1/cluster/attach")
	coordinators := fs.String("coordinator", "", "comma-separated coordinator base URLs the worker polls (with -worker)")
	workerName := fs.String("worker-name", "", "worker name reported on leases (default: hostname-pid)")
	workerPoll := fs.Duration("poll", 0, "worker idle back-off between passes that found no work (0 = default)")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if *coordinators != "" && !*workerOn {
		return fmt.Errorf("-coordinator requires -worker")
	}
	var logger *obs.Logger // nil disables
	if !*quiet {
		logger = obs.NewLogger(os.Stderr, slog.LevelInfo, *logJSON)
	}
	cfg := server.Config{
		Registry:            obs.New(),
		Logger:              logger,
		RequestTimeout:      *timeout,
		EnablePprof:         *pprofOn,
		EnableTracing:       *tracing,
		InstrumentSimulator: true,
		OracleTimeout:       *oracleTimeout,
		OracleRetries:       *oracleRetries,
		OracleVotes:         *oracleVotes,
		EnableJobs:          *jobsOn || *jobsDir != "",
		JobsDir:             *jobsDir,
		JobsWorkers:         *jobsWorkers,
		JobsQueueDepth:      *jobsQueue,
		JobsTenantRate:      *jobsTenantRate,
		JobsTenantBurst:     *jobsTenantBurst,
		EnableCluster:       *clusterOn || *clusterDir != "",
		ClusterDir:          *clusterDir,
		ClusterLeaseTTL:     *leaseTTL,
		ClusterRangeSize:    *rangeSize,
	}
	var worker *cluster.Worker
	if *workerOn {
		name := *workerName
		if name == "" {
			host, _ := os.Hostname()
			name = fmt.Sprintf("%s-%d", host, os.Getpid())
		}
		worker = cluster.NewWorker(cluster.WorkerConfig{
			Name:         name,
			Coordinators: splitURLList(*coordinators),
			PollInterval: *workerPoll,
			Registry:     cfg.Registry,
			Logger:       logger,
		})
		cfg.ClusterWorker = worker
	}
	svc, err := server.NewService(cfg)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	if worker != nil {
		worker.Start()
		defer worker.Stop()
	}
	fmt.Fprintf(out, "cfsmdiag service listening on http://%s\n", ln.Addr())
	fmt.Fprintf(out, "  routes: %s\n", strings.Join(server.RouteList(cfg), ", "))
	fmt.Fprintf(out, "  pprof: %v, tracing (?trace=1): %v\n", *pprofOn, *tracing)
	if cfg.EnableJobs {
		durable := "in-memory only"
		if *jobsDir != "" {
			durable = "durable in " + *jobsDir
		}
		fmt.Fprintf(out, "  jobs: %d workers, %s\n", svc.Jobs().Workers(), durable)
	}
	if cfg.EnableCluster {
		durable := "in-memory only"
		if *clusterDir != "" {
			durable = "journal in " + *clusterDir
		}
		fmt.Fprintf(out, "  cluster: coordinator mounted (%s)\n", durable)
	}
	if worker != nil {
		coords := worker.Coordinators()
		if len(coords) == 0 {
			fmt.Fprintf(out, "  cluster: worker idle, waiting for POST /v1/cluster/attach\n")
		} else {
			fmt.Fprintf(out, "  cluster: worker polling %s\n", strings.Join(coords, ", "))
		}
	}
	srv := &http.Server{Handler: svc.Handler(), ReadHeaderTimeout: 10 * time.Second}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
		stop() // a second signal kills immediately
		fmt.Fprintln(out, "shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			srv.Close()
		}
		// Drain the job queue after the listener stops accepting work: running
		// jobs finish (or are cancelled at the deadline) and queued jobs persist
		// to the WAL for the next start.
		return svc.Close(shutdownCtx)
	}
}

// splitURLList splits a comma-separated URL list, trimming whitespace and
// trailing slashes and dropping empty entries.
func splitURLList(s string) []string {
	var urls []string
	for _, u := range strings.Split(s, ",") {
		if u = strings.TrimRight(strings.TrimSpace(u), "/"); u != "" {
			urls = append(urls, u)
		}
	}
	return urls
}

// parseArgs parses flags that may appear before or after the positional
// argument (flag.FlagSet stops at the first non-flag).
func parseArgs(fs *flag.FlagSet, args []string) error {
	var positional []string
	for len(args) > 0 {
		if err := fs.Parse(args); err != nil {
			return err
		}
		args = fs.Args()
		if len(args) == 0 {
			break
		}
		positional = append(positional, args[0])
		args = args[1:]
	}
	return fs.Parse(positional)
}
