package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
)

func writeSystem(t *testing.T, sys *cfsm.System, name string) string {
	t.Helper()
	data, err := sys.MarshalJSON()
	if err != nil {
		t.Fatalf("MarshalJSON: %v", err)
	}
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	return path
}

func runCLI(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestParseInput(t *testing.T) {
	tests := []struct {
		tok     string
		want    cfsm.Input
		wantErr bool
	}{
		{tok: "R", want: cfsm.Reset()},
		{tok: "a^1", want: cfsm.Input{Port: 0, Sym: "a"}},
		{tok: "c'^3", want: cfsm.Input{Port: 2, Sym: "c'"}},
		{tok: " b^2 ", want: cfsm.Input{Port: 1, Sym: "b"}},
		{tok: "a", wantErr: true},
		{tok: "a^", wantErr: true},
		{tok: "^1", wantErr: true},
		{tok: "a^zero", wantErr: true},
		{tok: "a^0", wantErr: true},
	}
	for _, tc := range tests {
		got, err := cfsm.ParseInputToken(tc.tok)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseInput(%q): want error", tc.tok)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("parseInput(%q) = %v, %v; want %v", tc.tok, got, err, tc.want)
		}
	}
}

func TestParseInputs(t *testing.T) {
	ins, err := parseInputs("R, a^1, c'^3")
	if err != nil || len(ins) != 3 {
		t.Fatalf("parseInputs = %v, %v", ins, err)
	}
	if _, err := parseInputs("  , "); err == nil {
		t.Error("want error for empty sequence")
	}
	if _, err := parseInputs("R, bogus"); err == nil {
		t.Error("want error for bad token")
	}
}

func TestParseAndMarshalSuite(t *testing.T) {
	suite := paper.TestSuite()
	data, err := marshalSuite(suite)
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	back, err := parseSuite(data)
	if err != nil {
		t.Fatalf("parseSuite: %v", err)
	}
	if len(back) != len(suite) {
		t.Fatalf("round trip: %d cases, want %d", len(back), len(suite))
	}
	for i := range suite {
		if cfsm.FormatInputs(back[i].Inputs) != cfsm.FormatInputs(suite[i].Inputs) {
			t.Errorf("case %d differs", i)
		}
	}
	if _, err := parseSuite([]byte("{")); err == nil {
		t.Error("want error for bad JSON")
	}
	if _, err := parseSuite([]byte(`{"testcases":[]}`)); err == nil {
		t.Error("want error for empty suite")
	}
}

// TestBuildJobRequestSuiteFile: `jobs submit -suite` reads the suite file
// like every other command and submits the bare case list, unnamed cases
// named; a suite the shared decoder rejects never leaves the CLI.
func TestBuildJobRequestSuiteFile(t *testing.T) {
	dir := t.TempDir()
	write := func(name, doc string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	good := write("good.json", `{"testcases":[{"name":"T1","inputs":["R","a^1"]},{"inputs":["R"]}]}`)
	request, err := buildJobRequest("sweep", true, "", "", good)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Suite []cfsm.CaseJSON `json:"suite"`
	}
	if err := json.Unmarshal(request, &doc); err != nil {
		t.Fatal(err)
	}
	want := []cfsm.CaseJSON{{Name: "T1", Inputs: []string{"R", "a^1"}}, {Name: "tc2", Inputs: []string{"R"}}}
	if !reflect.DeepEqual(doc.Suite, want) {
		t.Errorf("submitted suite = %+v, want %+v", doc.Suite, want)
	}
	dup := write("dup.json", `{"testcases":[{"name":"T1","inputs":["R"]},{"name":"T1","inputs":["R"]}]}`)
	if _, err := buildJobRequest("sweep", true, "", "", dup); err == nil || !strings.Contains(err.Error(), "T1") {
		t.Errorf("duplicate names: err = %v", err)
	}
}

func TestParseFault(t *testing.T) {
	sys := paper.MustFigure1()
	ref, output, to, err := parseFault(sys, "M1.t7:output=c'")
	if err != nil || ref.Name != "t7" || output != "c'" || to != "" {
		t.Fatalf("parseFault = %v %q %q %v", ref, output, to, err)
	}
	ref, output, to, err = parseFault(sys, `M3.t"4:to=s0`)
	if err != nil || ref.Name != `t"4` || output != "" || to != "s0" {
		t.Fatalf("parseFault = %v %q %q %v", ref, output, to, err)
	}
	_, output, to, err = parseFault(sys, "M1.t7:output=c',to=s2")
	if err != nil || output != "c'" || to != "s2" {
		t.Fatalf("parseFault combined = %q %q %v", output, to, err)
	}
	for _, bad := range []string{
		"nonsense", "M9.t7:output=c'", "M1.zz:output=c'",
		"M1.t7:bogus=1", "M1.t7:", "t7:output=c'",
	} {
		if _, _, _, err := parseFault(sys, bad); err == nil {
			t.Errorf("parseFault(%q): want error", bad)
		}
	}
}

func TestCLIValidateAndDot(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	out, err := runCLI(t, "validate", path)
	if err != nil {
		t.Fatalf("validate: %v", err)
	}
	if !strings.Contains(out, "3 machines") {
		t.Errorf("validate output: %q", out)
	}
	out, err = runCLI(t, "dot", path)
	if err != nil || !strings.Contains(out, "digraph") {
		t.Fatalf("dot: %v %q", err, out)
	}
}

func TestCLISimulate(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	out, err := runCLI(t, "simulate", path, "-inputs", "R, a^1, c'^3")
	if err != nil {
		t.Fatalf("simulate: %v", err)
	}
	if !strings.Contains(out, "outputs: -, c'^1, a^3") {
		t.Errorf("simulate output: %q", out)
	}
}

func TestCLITourAndMutants(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	out, err := runCLI(t, "tour", path)
	if err != nil || !strings.Contains(out, "testcases") {
		t.Fatalf("tour: %v %q", err, out)
	}
	out, err = runCLI(t, "mutants", path)
	if err != nil || !strings.Contains(out, "total: 145 single-transition faults") {
		t.Fatalf("mutants: %v\n%s", err, out)
	}
}

func TestCLIInjectAndDiagnose(t *testing.T) {
	specPath := writeSystem(t, paper.MustFigure1(), "spec.json")
	out, err := runCLI(t, "inject", specPath, "-fault", `M3.t"4:to=s0`)
	if err != nil {
		t.Fatalf("inject: %v", err)
	}
	iutPath := filepath.Join(t.TempDir(), "iut.json")
	if err := os.WriteFile(iutPath, []byte(out), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	// Write the paper's suite to disk and diagnose with it.
	suiteData, err := marshalSuite(paper.TestSuite())
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	suitePath := filepath.Join(t.TempDir(), "suite.json")
	if err := os.WriteFile(suitePath, suiteData, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err = runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath, "-suite", suitePath)
	if err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	for _, want := range []string{"Step 3", "Verdict: fault localized", `t"4 transfers to s0`} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnose output missing %q:\n%s", want, out)
		}
	}

	// Diagnose with a generated tour instead of an explicit suite.
	out, err = runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath)
	if err != nil || !strings.Contains(out, "fault localized") {
		t.Fatalf("diagnose (tour): %v\n%s", err, out)
	}

	// Narrate mode prints the adaptive phase as it runs.
	out, err = runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath, "-suite", suitePath, "-narrate")
	if err != nil {
		t.Fatalf("diagnose -narrate: %v", err)
	}
	if !strings.Contains(out, "testing candidate M1.t7") {
		t.Errorf("narrate output missing narration:\n%s", out)
	}

	// Markdown report mode.
	out, err = runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath, "-suite", suitePath, "-report")
	if err != nil {
		t.Fatalf("diagnose -report: %v", err)
	}
	for _, want := range []string{"# CFSM diagnosis report", "```mermaid", "**Verdict:** fault localized"} {
		if !strings.Contains(out, want) {
			t.Errorf("report output missing %q", want)
		}
	}
}

func TestCLISeq(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	out, err := runCLI(t, "seq", path, "-inputs", "R, a^1, c^1")
	if err != nil {
		t.Fatalf("seq: %v", err)
	}
	for _, want := range []string{"sequenceDiagram", "T->>M1: a", "M1->>M2: c' (t6)"} {
		if !strings.Contains(out, want) {
			t.Errorf("seq output missing %q:\n%s", want, out)
		}
	}
	if _, err := runCLI(t, "seq", path); err == nil {
		t.Error("want usage error without -inputs")
	}
}

func TestCLIVerifySuiteAndDetect(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	out, err := runCLI(t, "verifysuite", path)
	if err != nil || !strings.Contains(out, "testcases") {
		t.Fatalf("verifysuite: %v %q", err, out[:80])
	}
	minimized, err := runCLI(t, "verifysuite", path, "-minimize")
	if err != nil || !strings.Contains(minimized, "testcases") {
		t.Fatalf("verifysuite -minimize: %v", err)
	}
	if len(minimized) >= len(out) {
		t.Errorf("minimized suite output (%d bytes) not smaller than full (%d bytes)",
			len(minimized), len(out))
	}

	// Detection with a generated tour.
	out, err = runCLI(t, "detect", path)
	if err != nil {
		t.Fatalf("detect: %v", err)
	}
	if !strings.Contains(out, "fault space: 145") || !strings.Contains(out, "missed:") {
		t.Errorf("detect output: %q", out)
	}
	// Detection of the paper's suite, including address faults.
	suiteData, err := marshalSuite(paper.TestSuite())
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	suitePath := filepath.Join(t.TempDir(), "suite.json")
	if err := os.WriteFile(suitePath, suiteData, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	out, err = runCLI(t, "detect", path, "-suite", suitePath, "-address")
	if err != nil {
		t.Fatalf("detect -address: %v", err)
	}
	if !strings.Contains(out, "fault space: 167") { // 145 + 22 address faults
		t.Errorf("detect -address output: %q", out)
	}
}

func TestParseObservations(t *testing.T) {
	obs, err := parseObservations([]byte(`{"observations":[["-","c'^1","ε^3"]]}`))
	if err != nil {
		t.Fatalf("parseObservations: %v", err)
	}
	if len(obs) != 1 || len(obs[0]) != 3 {
		t.Fatalf("obs = %v", obs)
	}
	if obs[0][0] != (cfsm.Observation{Sym: cfsm.Null, Port: 0}) {
		t.Errorf("null = %v", obs[0][0])
	}
	if obs[0][1] != (cfsm.Observation{Sym: "c'", Port: 0}) {
		t.Errorf("c' = %v", obs[0][1])
	}
	if obs[0][2] != (cfsm.Observation{Sym: cfsm.Epsilon, Port: 2}) {
		t.Errorf("ε = %v", obs[0][2])
	}
	for _, bad := range []string{`{`, `{"observations":[]}`, `{"observations":[["nope"]]}`, `{"observations":[["x^0"]]}`} {
		if _, err := parseObservations([]byte(bad)); err == nil {
			t.Errorf("parseObservations(%q): want error", bad)
		}
	}
}

// TestCLIOfflineWorkflow drives the record → analyze pipeline: record the
// faulty IUT's outputs for the paper suite, analyze them offline, and check
// the report plus the suggested tests.
func TestCLIOfflineWorkflow(t *testing.T) {
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	specPath := writeSystem(t, paper.MustFigure1(), "spec.json")
	iutPath := writeSystem(t, iut, "iut.json")
	suiteData, err := marshalSuite(paper.TestSuite())
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	dir := t.TempDir()
	suitePath := filepath.Join(dir, "suite.json")
	if err := os.WriteFile(suitePath, suiteData, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	recorded, err := runCLI(t, "record", iutPath, "-suite", suitePath)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	obsPath := filepath.Join(dir, "obs.json")
	if err := os.WriteFile(obsPath, []byte(recorded), 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	out, err := runCLI(t, "analyze", "-spec", specPath, "-suite", suitePath, "-obs", obsPath)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	for _, want := range []string{
		"Diag1: M1.t7 outputs c' instead of d'",
		"Suggested next diagnostic tests:",
		`target M1.t7: apply "R, c^1, b^1"`,
		"if correct",
		`if M1.t7 outputs c' instead of d'`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("analyze output missing %q:\n%s", want, out)
		}
	}
}

func TestCLISweep(t *testing.T) {
	path := writeSystem(t, paper.MustFigure1(), "fig1.json")
	// The sweep over a system file must report all 145 mutants and the
	// outcome counts of the tour-suite sweep, and the result must not depend
	// on the worker count.
	for _, workers := range []string{"1", "4"} {
		out, err := runCLI(t, "sweep", path, "-workers", workers)
		if err != nil {
			t.Fatalf("sweep -workers %s: %v", workers, err)
		}
		if !strings.Contains(out, "swept 145 mutants with "+workers+" workers") {
			t.Errorf("sweep -workers %s output missing header:\n%s", workers, out)
		}
		if !strings.Contains(out, "localized-correct:         136") {
			t.Errorf("sweep -workers %s output missing outcome counts:\n%s", workers, out)
		}
	}
	// The built-in paper system gives the same sweep without a file.
	out, err := runCLI(t, "sweep", "-paper")
	if err != nil {
		t.Fatalf("sweep -paper: %v", err)
	}
	if !strings.Contains(out, "swept 145 mutants") {
		t.Errorf("sweep -paper output:\n%s", out)
	}
	// Usage errors.
	if _, err := runCLI(t, "sweep"); err == nil {
		t.Error("want usage error for sweep without file")
	}
	if _, err := runCLI(t, "sweep", "-paper", path); err == nil {
		t.Error("want usage error for -paper with a positional file")
	}
}

// TestCLITraceGolden pins the Figure 1 trace stream byte for byte: the
// replay header, the sim.* events of the specification runs, the analysis
// and the Step-6 events. After an intended change to the stream, regenerate
// the file with
//
//	go run ./cmd/cfsmdiag diagnose -paper -trace cmd/cfsmdiag/testdata/figure1-trace.golden.jsonl
func TestCLITraceGolden(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.jsonl")
	if _, err := runCLI(t, "diagnose", "-paper", "-trace", path); err != nil {
		t.Fatalf("diagnose -paper -trace: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "figure1-trace.golden.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("trace differs from the golden file at line %d:\n got %s\nwant %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("trace has %d lines, golden file %d", len(gl), len(wl))
	}
}

// TestCLITraceAndReplay drives the tracing workflow end to end: a traced
// -paper diagnosis writes a JSONL trace plus a Chrome export, and the replay
// subcommand reproduces the localization from the file with zero live oracle
// executions.
func TestCLITraceAndReplay(t *testing.T) {
	dir := t.TempDir()
	tracePath := filepath.Join(dir, "trace.jsonl")
	chromePath := filepath.Join(dir, "chrome.json")

	out, err := runCLI(t, "diagnose", "-paper", "-trace", tracePath, "-chrome", chromePath, "-explain")
	if err != nil {
		t.Fatalf("diagnose -paper -trace: %v", err)
	}
	for _, want := range []string{
		"Verdict: fault localized",
		"# Why this diagnosis", // -explain narrative
		`M3.t"4 — convicted`,   // Section 4's conclusion
		"trace: wrote",         // both export notes
		"trace: wrote Chrome trace",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("diagnose output missing %q:\n%s", want, out)
		}
	}
	chrome, err := os.ReadFile(chromePath)
	if err != nil {
		t.Fatalf("chrome export: %v", err)
	}
	if !strings.Contains(string(chrome), `"traceEvents"`) {
		t.Errorf("chrome export is not a trace-event file:\n%.200s", chrome)
	}

	out, err = runCLI(t, "replay", tracePath, "-explain")
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	for _, want := range []string{
		"canned diagnostic answers",
		"Verdict: fault localized",
		`t"4 transfers to s0`,
		"0 live executions",
		"replay: verdict matches the recorded run",
		"# Why this diagnosis",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("replay output missing %q:\n%s", want, out)
		}
	}

	// Replay rejects a file that is not a valid trace.
	badPath := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(badPath, []byte(`{"seq":1,"kind":"nonsense"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runCLI(t, "replay", badPath); err == nil || !strings.Contains(err.Error(), "invalid trace") {
		t.Errorf("replay of invalid file: err = %v", err)
	}
	// -paper conflicts with -spec/-iut.
	if _, err := runCLI(t, "diagnose", "-paper", "-spec", "x.json", "-iut", "y.json"); err == nil {
		t.Error("want usage error for -paper with -spec/-iut")
	}
}

// TestCLISweepTrace: `sweep -trace` writes a replay-validating JSONL file
// covering the requested number of failing mutants.
func TestCLISweepTrace(t *testing.T) {
	tracePath := filepath.Join(t.TempDir(), "sweep.jsonl")
	out, err := runCLI(t, "sweep", "-paper", "-workers", "1", "-trace", tracePath, "-tracefailures", "2")
	if err != nil {
		t.Fatalf("sweep -trace: %v", err)
	}
	if !strings.Contains(out, "for 2 traced mutants") {
		t.Errorf("sweep output missing trace note:\n%s", out)
	}
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("trace file: %v", err)
	}
	if !strings.Contains(string(data), `"sweep.mutant"`) {
		t.Errorf("trace file lacks sweep.mutant spans:\n%.300s", data)
	}
}

func TestCLIErrors(t *testing.T) {
	if _, err := runCLI(t); err == nil {
		t.Error("want usage error for no args")
	}
	if _, err := runCLI(t, "bogus"); err == nil {
		t.Error("want error for unknown subcommand")
	}
	if _, err := runCLI(t, "validate"); err == nil {
		t.Error("want usage error for validate without file")
	}
	if _, err := runCLI(t, "validate", "/nonexistent.json"); err == nil {
		t.Error("want error for missing file")
	}
	if _, err := runCLI(t, "diagnose", "-spec", "/nonexistent.json", "-iut", "/nope.json"); err == nil {
		t.Error("want error for missing spec")
	}
}

// TestCLIDefaultSuite pins the suite-omitted rule on diagnose and sweep: a
// partial tour runs with a note, an empty tour is an error, as on the server.
func TestCLIDefaultSuite(t *testing.T) {
	system := func(transitions ...cfsm.Transition) string {
		m, err := cfsm.NewMachine("M1", "s0", []cfsm.State{"s0", "s1"}, transitions)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cfsm.NewSystem(m)
		if err != nil {
			t.Fatal(err)
		}
		return writeSystem(t, sys, "sys.json")
	}
	island := cfsm.Transition{Name: "t1", From: "s1", Input: "a", Output: "b", To: "s1", Dest: cfsm.DestEnv}
	loop := cfsm.Transition{Name: "t0", From: "s0", Input: "a", Output: "b", To: "s0", Dest: cfsm.DestEnv}
	partial, empty := system(loop, island), system(island)
	for _, args := range [][]string{
		{"diagnose", "-spec", partial, "-iut", partial},
		{"sweep", partial},
	} {
		out, err := runCLI(t, args...)
		if err != nil || !strings.Contains(out, "note: 1 unreachable transitions not covered by the generated tour\n") {
			t.Errorf("%s on a partial tour: %v\n%s", args[0], err, out)
		}
	}
	for _, args := range [][]string{
		{"diagnose", "-spec", empty, "-iut", empty},
		{"sweep", empty},
	} {
		if _, err := runCLI(t, args...); err == nil || !strings.Contains(err.Error(), "transition tour is empty") {
			t.Errorf("%s on an empty tour: err = %v", args[0], err)
		}
	}
}

// TestCLIInfoConfigurations pins the configuration count `info` prints:
// exact while it fits in a uint64 (27 for Figure 1), ">=2^64" past that.
func TestCLIInfoConfigurations(t *testing.T) {
	wide := randgen.MustGenerate(randgen.Config{N: 17, States: 16, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.5, Seed: 1})
	for _, tc := range []struct {
		sys  *cfsm.System
		want string
	}{
		{paper.MustFigure1(), "compiled: 21 symbols, 27 global configurations\n"},
		{wide, " >=2^64 global configurations\n"},
	} {
		out, err := runCLI(t, "info", writeSystem(t, tc.sys, "sys.json"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(out, tc.want) {
			t.Errorf("info output lacks %q:\n%s", tc.want, out)
		}
	}
}
