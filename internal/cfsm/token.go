package cfsm

import (
	"fmt"
	"strconv"
	"strings"

	"cfsmdiag/internal/jsonread"
)

// ParseInputToken parses one input in the notation the library prints:
// "R" for the reset, or "sym^port" with a 1-based port, e.g. "a^1", "c'^3".
// It is the inverse of Input.String. A reset carries no port, so "R^2"
// reads as Reset(), exactly as it prints.
func ParseInputToken(tok string) (Input, error) {
	tok = strings.TrimSpace(tok)
	if tok == string(ResetSymbol) {
		return Reset(), nil
	}
	i := strings.LastIndex(tok, "^")
	if i <= 0 || i == len(tok)-1 {
		return Input{}, fmt.Errorf("input %q: want sym^port (e.g. a^1) or R", tok)
	}
	port, err := strconv.Atoi(tok[i+1:])
	if err != nil || port < 1 {
		return Input{}, fmt.Errorf("input %q: bad port %q", tok, tok[i+1:])
	}
	if Symbol(tok[:i]) == ResetSymbol {
		return Reset(), nil
	}
	return Input{Port: port - 1, Sym: Symbol(tok[:i])}, nil
}

// ParseObservationToken parses one observation: "-" (the reset output) or
// "sym^port" with a 1-based port. It is the inverse of Observation.String;
// like the reset, its output "-" carries no port.
func ParseObservationToken(tok string) (Observation, error) {
	tok = strings.TrimSpace(tok)
	if tok == string(Null) {
		return Observation{Sym: Null, Port: 0}, nil
	}
	i := strings.LastIndex(tok, "^")
	if i <= 0 || i == len(tok)-1 {
		return Observation{}, fmt.Errorf("observation %q: want sym^port or -", tok)
	}
	port, err := strconv.Atoi(tok[i+1:])
	if err != nil || port < 1 {
		return Observation{}, fmt.Errorf("observation %q: bad port %q", tok, tok[i+1:])
	}
	if Symbol(tok[:i]) == Null {
		return Observation{Sym: Null, Port: 0}, nil
	}
	return Observation{Sym: Symbol(tok[:i]), Port: port - 1}, nil
}

// ParseInputs parses a comma-separated input sequence, e.g. "R, a^1, c'^3",
// skipping blank entries. It is the inverse of FormatInputs.
func ParseInputs(s string) ([]Input, error) { return parseTokens(listTokens(s), ParseInputToken) }

// ParseObs parses a comma-separated observation sequence, e.g.
// "-, c'^1, ε^3", skipping blank entries. It is the inverse of FormatObs.
func ParseObs(s string) ([]Observation, error) {
	return parseTokens(listTokens(s), ParseObservationToken)
}

func listTokens(s string) []string {
	var toks []string
	for _, tok := range strings.Split(s, ",") {
		if strings.TrimSpace(tok) != "" {
			toks = append(toks, tok)
		}
	}
	return toks
}

func parseTokens[T any](toks []string, parse func(string) (T, error)) ([]T, error) {
	var out []T
	for _, tok := range toks {
		x, err := parse(tok)
		if err != nil {
			return nil, err
		}
		out = append(out, x)
	}
	return out, nil
}

// CaseJSON is the wire form of one test case, its inputs as tokens
// ("R", "a^1"). Every suite document is a list of these: CLI suite files,
// /v1 requests and responses, job payloads, cluster leases and journals.
type CaseJSON struct {
	Name   string   `json:"name"`
	Inputs []string `json:"inputs"`
}

// ReadSuite reads a suite document with r, as encoding/json decodes it into
// cases (see jsonread.Slice).
func ReadSuite(r *jsonread.Reader, cases []CaseJSON) []CaseJSON {
	return jsonread.Slice(r, cases, func(c *CaseJSON) {
		r.Struct(func(key []byte) bool {
			switch string(key) {
			case "name":
				jsonread.String(r, &c.Name)
			case "inputs":
				c.Inputs = jsonread.Slice(r, c.Inputs, func(tok *string) { jsonread.String(r, tok) })
			default:
				return false
			}
			return true
		})
	})
}

// DuplicateCaseError reports a suite naming two test cases identically.
type DuplicateCaseError struct{ Name string }

func (e DuplicateCaseError) Error() string {
	return fmt.Sprintf("suite names two test cases %q; test-case names must be unique", e.Name)
}

// DecodeSuite parses a wire-form suite. An unnamed case is named tc%d after
// its 1-based position. Test-case names label symptoms, conflict sets,
// reports and trace events, so two cases sharing a name would make those
// ambiguous: a collision, including an explicit name that claims an unnamed
// case's tc%d slot, is a DuplicateCaseError.
func DecodeSuite(cases []CaseJSON) ([]TestCase, error) {
	var out []TestCase
	seen := make(map[string]bool, len(cases))
	for i, cj := range cases {
		name := cj.Name
		if name == "" {
			name = fmt.Sprintf("tc%d", i+1)
		}
		if seen[name] {
			return nil, DuplicateCaseError{Name: name}
		}
		seen[name] = true
		inputs, err := parseTokens(cj.Inputs, ParseInputToken)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		out = append(out, TestCase{Name: name, Inputs: inputs})
	}
	return out, nil
}

// EncodeSuite renders a suite in wire form; DecodeSuite inverts it.
func EncodeSuite(suite []TestCase) []CaseJSON {
	var out []CaseJSON
	for _, tc := range suite {
		out = append(out, CaseJSON{Name: tc.Name, Inputs: EncodeInputs(tc.Inputs)})
	}
	return out
}

// DecodeObservations parses wire-form observation sequences, one token list
// per test case; EncodeObs renders each list.
func DecodeObservations(seqs [][]string) ([][]Observation, error) {
	out := make([][]Observation, len(seqs))
	for i, seq := range seqs {
		obs, err := parseTokens(seq, ParseObservationToken)
		if err != nil {
			return nil, fmt.Errorf("sequence %d: %w", i+1, err)
		}
		out[i] = obs
	}
	return out, nil
}

// EncodeInputs renders an input sequence as wire tokens.
func EncodeInputs(ins []Input) []string { return tokens(ins) }

// EncodeObs renders an observation sequence as wire tokens.
func EncodeObs(obs []Observation) []string { return tokens(obs) }

// tokens renders each element; an empty sequence encodes as JSON null.
func tokens[T fmt.Stringer](xs []T) []string {
	var out []string
	for _, x := range xs {
		out = append(out, x.String())
	}
	return out
}
