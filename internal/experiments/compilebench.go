package experiments

import (
	"crypto/sha256"
	"runtime"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/paper"
)

// CompileBenchRecord is the machine-readable record of experiment E14
// (BENCH_compile.json): what lowering the specification into the dense
// compiled representation costs, what a serial (Workers: 1) sweep on it
// costs per mutant, and what obtaining a model costs from each on-disk form.
type CompileBenchRecord struct {
	System     string `json:"system"`
	Mutants    int    `json:"mutants"`
	SuiteCases int    `json:"suite_cases"`
	GoMaxProcs int    `json:"gomaxprocs"`

	// CompileNsPerOp is the one-off cost of compiled.Compile — paid once per
	// sweep and amortized over every mutant.
	CompileNsPerOp int64 `json:"compile_ns_per_op"`
	NumSymbols     int   `json:"num_symbols"`
	Configurations int   `json:"configurations"`

	SweepNsPerOp     int64 `json:"sweep_ns_per_op"`
	SweepNsPerMutant int64 `json:"sweep_ns_per_mutant"`
	SweepAllocsPerOp int64 `json:"sweep_allocs_per_op"`

	// The model-load trio: what a request pays to obtain a validated system
	// from each on-disk form, and what the server's content-addressed
	// registry pays on a hit (hash the bytes, look the model up).
	JSONParseNsPerOp    int64 `json:"json_parse_ns_per_op"`
	BinaryDecodeNsPerOp int64 `json:"binary_decode_ns_per_op"`
	RegistryHitNsPerOp  int64 `json:"registry_hit_ns_per_op"`
}

// RunCompileBench measures experiment E14 on the Figure 1 workload: compile
// cost, the serial sweep, and the model-load paths backing the server's
// registry. The sweep's parity with the interpreted reference engine is
// pinned by TestSweepMatchesReference, not re-checked here.
func RunCompileBench() (CompileBenchRecord, error) {
	spec := paper.MustFigure1()
	suite := paper.TestSuite()

	rec := CompileBenchRecord{
		System:     "figure1",
		SuiteCases: len(suite),
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}

	prog, err := compiled.Compile(spec)
	if err != nil {
		return rec, err
	}
	rec.NumSymbols = prog.NumSymbols()
	rec.Configurations = int(prog.Configs())

	res, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1})
	if err != nil {
		return rec, err
	}
	rec.Mutants = len(res.Reports)

	compileBench := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.Compile(spec); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.CompileNsPerOp = compileBench.NsPerOp()

	sweep := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := RunSweepOpts(spec, suite, SweepOptions{Workers: 1}); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.SweepNsPerOp = sweep.NsPerOp()
	rec.SweepNsPerMutant = sweep.NsPerOp() / int64(rec.Mutants)
	rec.SweepAllocsPerOp = sweep.AllocsPerOp()

	// Model-load paths. The registry hit is emulated exactly as the server
	// keys its cache: hash the submitted bytes, look the parsed model up.
	jsonBytes, err := spec.MarshalJSON()
	if err != nil {
		return rec, err
	}
	binBytes := compiled.EncodeSystem(spec)
	jp := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cfsm.ParseSystem(jsonBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.JSONParseNsPerOp = jp.NsPerOp()
	bd := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := compiled.DecodeSystem(binBytes); err != nil {
				b.Fatal(err)
			}
		}
	})
	rec.BinaryDecodeNsPerOp = bd.NsPerOp()
	cache := map[string]*cfsm.System{}
	sum := sha256.Sum256(jsonBytes)
	cache[string(sum[:])] = spec
	hit := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			k := sha256.Sum256(jsonBytes)
			if cache[string(k[:])] == nil {
				b.Fatal("registry miss")
			}
		}
	})
	rec.RegistryHitNsPerOp = hit.NsPerOp()
	return rec, nil
}
