package main

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"cfsmdiag/internal/paper"
)

// statsValue extracts the integer after a labeled line of the cost report.
func statsValue(t *testing.T, out, label string) int {
	t.Helper()
	re := regexp.MustCompile(regexp.QuoteMeta(label) + `\s+(\d+)`)
	m := re.FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("cost report missing %q:\n%s", label, out)
	}
	n, err := strconv.Atoi(m[1])
	if err != nil {
		t.Fatalf("parse %q value: %v", label, err)
	}
	return n
}

func TestCLIDiagnoseStats(t *testing.T) {
	specPath := writeSystem(t, paper.MustFigure1(), "spec.json")
	iut, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	iutPath := writeSystem(t, iut, "iut.json")
	suiteData, err := marshalSuite(paper.TestSuite())
	if err != nil {
		t.Fatalf("marshalSuite: %v", err)
	}
	suitePath := filepath.Join(t.TempDir(), "suite.json")
	if err := os.WriteFile(suitePath, suiteData, 0o644); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}

	out, err := runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath, "-suite", suitePath, "-stats")
	if err != nil {
		t.Fatalf("diagnose -stats: %v", err)
	}
	if !strings.Contains(out, "--- cost report ---") {
		t.Fatalf("no cost report:\n%s", out)
	}
	queries := statsValue(t, out, "oracle queries (tests):")
	suiteLen := len(paper.TestSuite())
	if queries <= suiteLen {
		t.Errorf("oracle queries = %d, want > suite size %d (additional tests ran)", queries, suiteLen)
	}
	if extra := statsValue(t, out, "additional tests:"); queries != suiteLen+extra {
		t.Errorf("queries %d != suite %d + additional %d", queries, suiteLen, extra)
	}
	if steps := statsValue(t, out, "simulator steps:"); steps == 0 {
		t.Error("simulator steps = 0; instrumentation not installed")
	}
	if rounds := statsValue(t, out, "refinement rounds:"); rounds == 0 {
		t.Error("refinement rounds = 0")
	}

	// Without -stats there is no report, and the collector from the previous
	// run has been uninstalled.
	out, err = runCLI(t, "diagnose", "-spec", specPath, "-iut", iutPath, "-suite", suitePath)
	if err != nil {
		t.Fatalf("diagnose: %v", err)
	}
	if strings.Contains(out, "cost report") {
		t.Errorf("unexpected cost report without -stats:\n%s", out)
	}
}

// TestCLINarrateKeepsStats: tracing observes the one diagnosis instead of
// running a second one, so -narrate, -trace and -chrome leave the -stats
// simulator counts of Figure 1 where the untraced run puts them.
func TestCLINarrateKeepsStats(t *testing.T) {
	dir := t.TempDir()
	for _, flags := range [][]string{
		nil,
		{"-narrate"},
		{"-trace", filepath.Join(dir, "t.jsonl")},
		{"-chrome", filepath.Join(dir, "c.json")},
		{"-narrate", "-trace", filepath.Join(dir, "t2.jsonl"), "-chrome", filepath.Join(dir, "c2.json")},
	} {
		out, err := runCLI(t, append([]string{"diagnose", "-paper", "-stats"}, flags...)...)
		if err != nil {
			t.Fatalf("diagnose -stats %v: %v", flags, err)
		}
		if slices.Contains(flags, "-narrate") && !strings.Contains(out, `candidate M3.t"4: convicted`) {
			t.Errorf("-stats %v: narration missing the conviction:\n%s", flags, out)
		}
		for _, c := range []struct {
			label string
			want  int
		}{{"simulator steps:", 153}, {"simulator resets:", 16}} {
			if got := statsValue(t, out, c.label); got != c.want {
				t.Errorf("-stats %v %s %d, want %d", flags, c.label, got, c.want)
			}
		}
	}
}

func TestCLISweepStats(t *testing.T) {
	out, err := runCLI(t, "sweep", "-paper", "-workers", "4", "-stats")
	if err != nil {
		t.Fatalf("sweep -stats: %v", err)
	}
	if !strings.Contains(out, "--- cost report ---") {
		t.Fatalf("no cost report:\n%s", out)
	}
	if mutants := statsValue(t, out, "mutants swept:"); mutants != 145 {
		t.Errorf("mutants swept = %d, want 145", mutants)
	}
	if queries := statsValue(t, out, "oracle queries (tests):"); queries < 145 {
		t.Errorf("oracle queries = %d, want at least one per mutant", queries)
	}
	if steps := statsValue(t, out, "simulator steps:"); steps == 0 {
		t.Error("simulator steps = 0; instrumentation not installed")
	}
	if !strings.Contains(out, "mean per-mutant latency:") {
		t.Errorf("no per-mutant latency line:\n%s", out)
	}
}
