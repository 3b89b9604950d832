package cfsm

import (
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// FuzzWireCodec feeds arbitrary bytes to the suite and observation codec,
// as a JSON suite document, a JSON observation document, and the
// comma-separated input and observation lists of a replay trace. Nothing
// may panic; a duplicate-name failure must be a DuplicateCaseError naming a
// genuinely repeated case; and whatever decodes must survive an
// encode/decode round trip unchanged.
func FuzzWireCodec(f *testing.F) {
	f.Add([]byte(`[{"name":"T1","inputs":["R","a^1","c'^3"]},{"inputs":["R","b^2"]}]`))
	f.Add([]byte(`[{"name":"T1","inputs":["R"]},{"name":"T1","inputs":["R"]}]`))
	f.Add([]byte(`[{"inputs":["R"]},{"name":"tc1","inputs":["R"]}]`))
	f.Add([]byte(`[{"inputs":["R^2","a^01"," b^2 "]},{"inputs":null}]`))
	f.Add([]byte(`[["-","c'^1","ε^3"],["-^2"],[]]`))
	f.Add([]byte(`R, a^1, c'^3, c^1, t^2, x^3`))
	f.Add([]byte(`-, c'^1, a^3, , d'^1`))
	f.Add([]byte(`a^0, ^1, x^`))
	f.Fuzz(func(t *testing.T, data []byte) {
		var cases []CaseJSON
		if json.Unmarshal(data, &cases) == nil {
			checkSuite(t, cases)
		}
		var seqs [][]string
		if json.Unmarshal(data, &seqs) == nil {
			checkObservations(t, seqs)
		}
		if ins, err := ParseInputs(string(data)); err == nil {
			if back, err := ParseInputs(FormatInputs(ins)); err != nil || !reflect.DeepEqual(back, ins) {
				t.Fatalf("input list %q: round trip %v, %v; want %v", data, back, err, ins)
			}
		}
		if obs, err := ParseObs(string(data)); err == nil {
			if back, err := ParseObs(FormatObs(obs)); err != nil || !reflect.DeepEqual(back, obs) {
				t.Fatalf("observation list %q: round trip %v, %v; want %v", data, back, err, obs)
			}
		}
	})
}

func checkSuite(t *testing.T, cases []CaseJSON) {
	suite, err := DecodeSuite(cases)
	var dup DuplicateCaseError
	if errors.As(err, &dup) {
		n := 0
		for i, cj := range cases {
			name := cj.Name
			if name == "" {
				name = fmt.Sprintf("tc%d", i+1)
			}
			if name == dup.Name {
				n++
			}
		}
		if n < 2 {
			t.Fatalf("DuplicateCaseError %q names a case that is not repeated: %+v", dup.Name, cases)
		}
		return
	}
	if err != nil {
		return
	}
	seen := make(map[string]bool, len(suite))
	for _, tc := range suite {
		if tc.Name == "" || seen[tc.Name] {
			t.Fatalf("decoded suite has an empty or repeated name %q", tc.Name)
		}
		seen[tc.Name] = true
	}
	doc, err := json.Marshal(EncodeSuite(suite))
	if err != nil {
		t.Fatal(err)
	}
	var wire []CaseJSON
	if err := json.Unmarshal(doc, &wire); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeSuite(wire)
	if err != nil || !reflect.DeepEqual(back, suite) {
		t.Fatalf("suite round trip %s: %+v, %v; want %+v", doc, back, err, suite)
	}
}

func checkObservations(t *testing.T, seqs [][]string) {
	obs, err := DecodeObservations(seqs)
	if err != nil {
		return
	}
	wire := make([][]string, len(obs))
	for i, seq := range obs {
		wire[i] = EncodeObs(seq)
	}
	doc, err := json.Marshal(wire)
	if err != nil {
		t.Fatal(err)
	}
	var again [][]string
	if err := json.Unmarshal(doc, &again); err != nil {
		t.Fatal(err)
	}
	back, err := DecodeObservations(again)
	if err != nil || !reflect.DeepEqual(back, obs) {
		t.Fatalf("observation round trip %s: %+v, %v; want %+v", doc, back, err, obs)
	}
}
