package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"cfsmdiag/internal/experiments"
)

// cmdCompileBench runs experiment E14 — compile cost, the serial sweep and
// the model-load paths — and writes it as indented JSON, mirroring
// `cfsmdiag sweep -benchjson` and `cfsmdiag jobs bench`.
func cmdCompileBench(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("compilebench", flag.ContinueOnError)
	path := fs.String("out", "BENCH_compile.json", "output path for the record")
	if err := parseArgs(fs, args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: cfsmdiag compilebench [-out BENCH_compile.json]")
	}
	rec, err := experiments.RunCompileBench()
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(*path, data, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "wrote %s: compile %d ns, sweep %d ns/mutant (%d allocs/op), model load json %d ns / binary %d ns / registry hit %d ns\n",
		*path, rec.CompileNsPerOp, rec.SweepNsPerMutant, rec.SweepAllocsPerOp,
		rec.JSONParseNsPerOp, rec.BinaryDecodeNsPerOp, rec.RegistryHitNsPerOp)
	return nil
}
