package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"cfsmdiag/internal/cfsm"
)

// parseInputs parses a non-empty comma-separated input sequence, e.g.
// "R, a^1, c'^3".
func parseInputs(s string) ([]cfsm.Input, error) {
	ins, err := cfsm.ParseInputs(s)
	if err != nil {
		return nil, err
	}
	if len(ins) == 0 {
		return nil, fmt.Errorf("empty input sequence")
	}
	return ins, nil
}

// suiteJSON is the on-disk format of a test suite.
type suiteJSON struct {
	TestCases []cfsm.CaseJSON `json:"testcases"`
}

// parseSuite decodes a non-empty test-suite file.
func parseSuite(data []byte) ([]cfsm.TestCase, error) {
	var doc suiteJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decode suite: %w", err)
	}
	suite, err := cfsm.DecodeSuite(doc.TestCases)
	if err != nil {
		return nil, err
	}
	if len(suite) == 0 {
		return nil, fmt.Errorf("suite contains no test cases")
	}
	return suite, nil
}

// readSuite reads and decodes a test-suite file.
func readSuite(path string) ([]cfsm.TestCase, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return parseSuite(data)
}

// marshalSuite encodes a suite in the on-disk format.
func marshalSuite(suite []cfsm.TestCase) ([]byte, error) {
	return json.MarshalIndent(suiteJSON{TestCases: cfsm.EncodeSuite(suite)}, "", "  ")
}

// obsJSON is the on-disk format of recorded observations: one sequence of
// observation tokens ("-", "c'^1", "ε^3") per test case, in suite order.
type obsJSON struct {
	Observations [][]string `json:"observations"`
}

// parseObservations decodes a recorded-observation file with at least one
// sequence.
func parseObservations(data []byte) ([][]cfsm.Observation, error) {
	var doc obsJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("decode observations: %w", err)
	}
	if len(doc.Observations) == 0 {
		return nil, fmt.Errorf("observation file contains no sequences")
	}
	return cfsm.DecodeObservations(doc.Observations)
}

// marshalObservations encodes observation sequences in the on-disk format.
func marshalObservations(obs [][]cfsm.Observation) ([]byte, error) {
	doc := obsJSON{Observations: make([][]string, len(obs))}
	for i, seq := range obs {
		doc.Observations[i] = cfsm.EncodeObs(seq)
	}
	return json.MarshalIndent(doc, "", "  ")
}

// parseFault parses a fault specifier "M.t:output=o", "M.t:to=s" or
// "M.t:output=o,to=s", where M is a machine name and t a transition name.
func parseFault(sys *cfsm.System, spec string) (cfsm.Ref, cfsm.Symbol, cfsm.State, error) {
	colon := strings.LastIndex(spec, ":")
	if colon < 0 {
		return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: want M.t:output=...,to=...", spec)
	}
	target, mods := spec[:colon], spec[colon+1:]
	dot := strings.Index(target, ".")
	if dot <= 0 {
		return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: target %q is not machine.transition", spec, target)
	}
	machineName, transName := target[:dot], target[dot+1:]
	machine := -1
	for i := 0; i < sys.N(); i++ {
		if sys.Machine(i).Name() == machineName {
			machine = i
			break
		}
	}
	if machine < 0 {
		return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: unknown machine %q", spec, machineName)
	}
	ref := cfsm.Ref{Machine: machine, Name: transName}
	if _, ok := sys.Transition(ref); !ok {
		return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: unknown transition %q in %s", spec, transName, machineName)
	}
	var output cfsm.Symbol
	var to cfsm.State
	for _, mod := range strings.Split(mods, ",") {
		mod = strings.TrimSpace(mod)
		switch {
		case strings.HasPrefix(mod, "output="):
			output = cfsm.Symbol(mod[len("output="):])
		case strings.HasPrefix(mod, "to="):
			to = cfsm.State(mod[len("to="):])
		default:
			return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: unknown modifier %q", spec, mod)
		}
	}
	if output == "" && to == "" {
		return cfsm.Ref{}, "", "", fmt.Errorf("fault %q: need output= and/or to=", spec)
	}
	return ref, output, to, nil
}
