package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"
)

// streamDigest hashes everything a stream would send, in order: the
// open-loop schedule with each body, then the closed-loop bodies.
func streamDigest(t *testing.T, w workload, seed int64) [32]byte {
	t.Helper()
	s, err := buildStream(w, seed, 2*time.Second, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	for _, a := range s.open {
		_ = binary.Write(h, binary.LittleEndian, int64(a.due))
		h.Write(s.bodies[a.req])
	}
	for _, req := range s.closed {
		h.Write(s.bodies[req])
	}
	var out [32]byte
	copy(out[:], h.Sum(nil))
	return out
}

func TestSeedFixesTheRequestStream(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if w.rate == 0 {
				if !slices.Equal(chooseSweep(1), chooseSweep(1)) {
					t.Fatal("same seed chose different sweep specifications")
				}
				if slices.Equal(chooseSweep(1), chooseSweep(2)) {
					t.Fatal("another seed chose the same sweep specifications")
				}
				return
			}
			if streamDigest(t, w, 1) != streamDigest(t, w, 1) {
				t.Fatal("same seed gave different request streams")
			}
			if streamDigest(t, w, 1) == streamDigest(t, w, 2) {
				t.Fatal("another seed gave the same request stream")
			}
		})
	}
}

// benchmarkFile is the part of BENCHMARK.json the benchmark must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestPrintedMetricsAreDeclared(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", names, workloadNames())
	}
	check := func(set string, printed map[string]metric, decl []declared) {
		units := make(map[string]string)
		for _, d := range decl {
			units[d.Name] = d.Unit
		}
		for name, m := range printed {
			if !metricName.MatchString(name) {
				t.Errorf("%s metric %q has characters outside [A-Za-z0-9_.-]", set, name)
			}
			if u, ok := units[name]; !ok {
				t.Errorf("%s metric %q is not declared in BENCHMARK.json", set, name)
			} else if u != m.Unit {
				t.Errorf("%s metric %q printed in %s, declared in %s", set, name, m.Unit, u)
			}
		}
		if len(printed) != len(decl) {
			t.Errorf("%s: %d metrics printed, %d declared", set, len(printed), len(decl))
		}
	}
	check("end_to_end", endToEnd(1, 1, 1, 1, 1, 1), bf.EndToEnd)
	check("per_layer", layers{}.metrics(), bf.PerLayer)
}

func TestResultsAreStamped(t *testing.T) {
	st := newStamp(options{workload: workloads[0], seed: 7, seconds: 3 * time.Second}, "abc123")
	raw, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"nproc", "gomaxprocs"} {
		if n, _ := fields[k].(float64); n < 1 {
			t.Errorf("stamp %s = %v", k, fields[k])
		}
	}
	if v, _ := fields["go"].(string); !strings.HasPrefix(v, "go") {
		t.Errorf("stamp go = %v", fields["go"])
	}
	if fields["commit"] != "abc123" {
		t.Errorf("stamp commit = %v", fields["commit"])
	}
}

func TestParseMetricsSumsSeries(t *testing.T) {
	text := `# HELP cfsmdiag_oracle_queries_total Oracle executions.
# TYPE cfsmdiag_oracle_queries_total counter
cfsmdiag_oracle_queries_total 12
cfsmdiag_localize_verdicts_total{verdict="localized"} 3
cfsmdiag_localize_verdicts_total{verdict="no_fault"} 4
cfsmdiag_model_registry_hits_total 1.5e+06
`
	got, err := parseMetrics(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"cfsmdiag_oracle_queries_total":      12,
		"cfsmdiag_localize_verdicts_total":   7,
		"cfsmdiag_model_registry_hits_total": 1.5e6,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("%s = %v, want %v", k, got[k], v)
		}
	}
}
