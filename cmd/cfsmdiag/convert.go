package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
)

// loadSystemAny decodes a model file in either on-disk format, sniffing the
// binary magic: binary models go through the versioned codec (content hash
// verified), anything else through the JSON parser. Both paths end in the
// full model validation.
func loadSystemAny(path string) (*cfsm.System, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if compiled.IsBinary(data) {
		sys, err := compiled.DecodeSystem(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		return sys, nil
	}
	return cfsm.ParseSystem(data)
}

// cmdConvert converts a model between the JSON and binary formats, choosing
// the direction from the input file: JSON input encodes to binary, binary
// input decodes to JSON.
func cmdConvert(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	outPath := fs.String("o", "", "output file (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 || *outPath == "" {
		return fmt.Errorf("usage: cfsmdiag convert <model.json|model.bin> -o <out>")
	}
	data, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	if compiled.IsBinary(data) {
		sys, err := compiled.DecodeSystem(data)
		if err != nil {
			return fmt.Errorf("%s: %w", fs.Arg(0), err)
		}
		doc, err := sys.MarshalJSON()
		if err != nil {
			return err
		}
		doc = append(doc, '\n')
		if err := os.WriteFile(*outPath, doc, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(out, "decoded %s (%d bytes binary) -> %s (%d bytes json), model %s\n",
			fs.Arg(0), len(data), *outPath, len(doc), compiled.ModelHash(sys))
		return nil
	}
	sys, err := cfsm.ParseSystem(data)
	if err != nil {
		return err
	}
	bin := compiled.EncodeSystem(sys)
	if err := os.WriteFile(*outPath, bin, 0o644); err != nil {
		return err
	}
	fmt.Fprintf(out, "encoded %s (%d bytes json) -> %s (%d bytes binary), model %s\n",
		fs.Arg(0), len(data), *outPath, len(bin), compiled.ModelHash(sys))
	return nil
}

// cmdInfo prints the header and shape of a model file. Binary files with a
// bad magic, an unsupported version, a content-hash mismatch or a truncated
// payload fail with the codec's typed error.
func cmdInfo(args []string, out io.Writer) error {
	if len(args) != 1 {
		return fmt.Errorf("usage: cfsmdiag info <model.json|model.bin>")
	}
	data, err := os.ReadFile(args[0])
	if err != nil {
		return err
	}
	format := "json"
	if compiled.IsBinary(data) {
		h, err := compiled.DecodeHeader(data)
		if err != nil {
			return fmt.Errorf("%s: %w", args[0], err)
		}
		fmt.Fprintf(out, "format:  binary v%d\nhash:    %s\npayload: %d bytes\n",
			h.Version, h.Hash, h.PayloadLen)
		format = "binary"
	}
	sys, err := loadSystemAny(args[0])
	if err != nil {
		return fmt.Errorf("%s: %w", args[0], err)
	}
	if format == "json" {
		fmt.Fprintf(out, "format:  json\nhash:    %s\n", compiled.ModelHash(sys))
	}
	fmt.Fprintf(out, "model:   %d machines, %d transitions\n", sys.N(), sys.NumTransitions())
	for i := 0; i < sys.N(); i++ {
		m := sys.Machine(i)
		fmt.Fprintf(out, "  %s: %d states, %d transitions\n", m.Name(), len(m.States()), m.NumTransitions())
	}
	p, err := compiled.Compile(sys)
	if err != nil {
		return err
	}
	configs := ">=2^64"
	if n, ok := p.Configs(); ok {
		configs = strconv.FormatUint(n, 10)
	}
	fmt.Fprintf(out, "compiled: %d symbols, %s global configurations\n", p.NumSymbols(), configs)
	return nil
}
