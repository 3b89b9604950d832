package cfsm_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/randgen"
)

// referenceDecode is the decode path the one-pass reader replaced:
// encoding/json into cfsm.SystemJSON — a json.Decoder with
// DisallowUnknownFields when strict (the server), json.Unmarshal otherwise
// (ParseSystem) — then cfsm.FromJSON.
func referenceDecode(data []byte, strict bool) (sys *cfsm.System, decodeErr, buildErr error) {
	var doc cfsm.SystemJSON
	if strict {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		decodeErr = dec.Decode(&doc)
	} else {
		decodeErr = json.Unmarshal(data, &doc)
	}
	if decodeErr != nil {
		return nil, decodeErr, nil
	}
	sys, buildErr = cfsm.FromJSON(doc)
	return sys, nil, buildErr
}

// checkReader holds the reader to the reference in both modes: the same
// accept/reject, the same validation error or a ModelHash-equal system, and
// through ParseSystem and ReadSystem the same error text.
func checkReader(t *testing.T, data []byte) {
	t.Helper()
	for _, strict := range []bool{false, true} {
		want, decErr, buildErr := referenceDecode(data, strict)
		got, ok, err := cfsm.ReadSystemDoc(data, strict)
		if ok != (decErr == nil) {
			t.Fatalf("strict=%v: reader accepts=%v, encoding/json says %v\n%q", strict, ok, decErr, data)
		}
		public, publicErr := cfsm.ParseSystem(data)
		prefix := "cfsm: decode system: "
		if strict {
			public, publicErr = cfsm.ReadSystem(data)
			prefix = ""
		}
		if decErr != nil {
			if !errors.As(publicErr, new(cfsm.DocumentError)) || publicErr.Error() != prefix+decErr.Error() {
				t.Fatalf("strict=%v: error %v, want %s%v", strict, publicErr, prefix, decErr)
			}
			continue
		}
		if errText(err) != errText(buildErr) || errText(publicErr) != errText(buildErr) {
			t.Fatalf("strict=%v: validation error %v (public %v), want %v", strict, err, publicErr, buildErr)
		}
		if buildErr == nil && (compiled.ModelHash(got) != compiled.ModelHash(want) ||
			compiled.ModelHash(public) != compiled.ModelHash(want)) {
			t.Fatalf("strict=%v: decoded system differs from encoding/json's", strict)
		}
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

const twoMachines = `{"machines":[
  {"name":"A","initial":"s0","states":["s0","s1"],"transitions":[
    {"name":"a1","from":"s0","input":"x","output":"y","to":"s1"},
    {"name":"a2","from":"s1","input":"i","output":"m","to":"s0","dest":"B"}]},
  {"name":"B","initial":"q0","states":["q0"],"transitions":[
    {"name":"b1","from":"q0","input":"m","output":"z","to":"q0"}]}]}`

// readerCases are the documents on which encoding/json's acceptance is
// easiest to get wrong; outcome names what the reference does with each in
// strict and lenient mode ("ok", "decode" or "invalid"), so a case that
// stops exercising its quirk shows.
var readerCases = []struct {
	name, doc, strict, lenient string
}{
	{"plain", twoMachines, "ok", "ok"},
	{"upper-case keys", strings.NewReplacer(`"machines"`, `"MACHINES"`, `"name"`, `"Name"`, `"to"`, `"TO"`).Replace(twoMachines), "ok", "ok"},
	{"long s folds to s", strings.NewReplacer(`"states"`, `"ſtates"`, `"machines"`, `"machineſ"`).Replace(twoMachines), "ok", "ok"},
	{"Kelvin sign is unknown", strings.Replace(twoMachines, `"initial":"q0"`, `"initial":"q0","\u212a":1`, 1), "decode", "ok"},
	{"escaped keys", strings.NewReplacer(`"initial"`, `"\u0069nitial"`, `"from"`, `"fr\u006fm"`).Replace(twoMachines), "ok", "ok"},
	{"escaped values", strings.Replace(twoMachines, `"output":"z"`, `"output":"\u007a"`, 1), "ok", "ok"},
	{"last duplicate wins", strings.Replace(twoMachines, `"initial":"s0"`, `"initial":"s9","initial":"s0"`, 1), "ok", "ok"},
	{"duplicate array merges into earlier elements", `{"machines":[{"name":"A","initial":"s0","states":["s0"]}],"machines":[{"name":"B"}]}`, "ok", "ok"},
	{"re-extended slice exposes its stale slot", `{"machines":[{"name":"A","initial":"s1","states":["s0","s1"],"states":["s0"],"states":["s0",null]}]}`, "ok", "ok"},
	{"empty array drops stale slots", `{"machines":[{"name":"A","initial":"s0","states":["s0","s1"],"states":[],"states":["s0",null]}]}`, "invalid", "invalid"},
	{"null string keeps the earlier value", `{"machines":[{"name":"A","initial":"s0","initial":null,"states":["s0"]}]}`, "ok", "ok"},
	{"null slice clears", `{"machines":[{"name":"A","initial":"s0","states":["s0"],"states":null}]}`, "invalid", "invalid"},
	{"null machine element", `{"machines":[null]}`, "invalid", "invalid"},
	{"null document", `null`, "invalid", "invalid"},
	{"invalid UTF-8 becomes U+FFFD", "{\"machines\":[{\"name\":\"A\xff\",\"initial\":\"s0\",\"states\":[\"s0\"]}]}", "ok", "ok"},
	{"lone surrogate becomes U+FFFD", `{"machines":[{"name":"A\ud800","initial":"s0","states":["s0"]}]}`, "ok", "ok"},
	{"surrogate pair", `{"machines":[{"name":"A\ud83d\ude00","initial":"s0","states":["s0"]}]}`, "ok", "ok"},
	{"bytes after the document", twoMachines + ` {"trailing"`, "ok", "decode"},
	{"whitespace after the document", twoMachines + " \n\t", "ok", "ok"},
	{"unknown field", strings.Replace(twoMachines, `{"machines"`, `{"bogus":[1,{"x":null}],"machines"`, 1), "decode", "ok"},
	{"unknown field too deep", `{"bogus":` + strings.Repeat("[", 10001) + strings.Repeat("]", 10001) + `,"machines":[]}`, "decode", "decode"},
	{"deep but within the limit", `{"bogus":` + strings.Repeat("[", 9998) + strings.Repeat("]", 9998) + `,"machines":[]}`, "decode", "invalid"},
	{"number for a string", `{"machines":[{"name":1}]}`, "decode", "decode"},
	{"object for a slice", `{"machines":{}}`, "decode", "decode"},
	{"array document", `[]`, "decode", "decode"},
	{"trailing comma", `{"machines":[],}`, "decode", "decode"},
	{"bad escape", `{"machines":[{"name":"\'"}]}`, "decode", "decode"},
	{"control character", "{\"machines\":[{\"name\":\"a\tb\"}]}", "decode", "decode"},
	{"leading zero in an unknown number", `{"n":01,"machines":[]}`, "decode", "decode"},
	{"truncated", twoMachines[:40], "decode", "decode"},
	{"empty", ``, "decode", "decode"},
}

func TestReaderMatchesEncodingJSON(t *testing.T) {
	for _, c := range readerCases {
		t.Run(c.name, func(t *testing.T) {
			checkReader(t, []byte(c.doc))
			for _, mode := range []struct {
				strict bool
				want   string
			}{{true, c.strict}, {false, c.lenient}} {
				_, decErr, buildErr := referenceDecode([]byte(c.doc), mode.strict)
				got := "ok"
				switch {
				case decErr != nil:
					got = "decode"
				case buildErr != nil:
					got = "invalid"
				}
				if got != mode.want {
					t.Errorf("strict=%v: encoding/json outcome %s (%v %v), the case expects %s",
						mode.strict, got, decErr, buildErr, mode.want)
				}
			}
		})
	}
	sys, err := cfsm.ParseSystem([]byte("{\"machines\":[{\"name\":\"A\xff\",\"initial\":\"s0\",\"states\":[\"s0\"]}]}"))
	if err != nil || sys.Machine(0).Name() != "A\uFFFD" {
		t.Fatalf("invalid UTF-8 name decoded as %v, %v", sys, err)
	}
}

// FuzzDecodeSystem holds the one-pass reader to encoding/json on arbitrary
// documents, in both unknown-field modes.
func FuzzDecodeSystem(f *testing.F) {
	seeds, err := filepath.Glob(filepath.Join("..", "..", "testdata", "figure1*.json"))
	if err != nil || len(seeds) == 0 {
		f.Fatalf("no seed fixtures: %v", err)
	}
	for _, path := range seeds {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`null`))
	f.Add([]byte(`{"machines":"M1"}`))
	for _, c := range readerCases {
		f.Add([]byte(c.doc))
	}
	f.Fuzz(checkReader)
}

// BenchmarkDecodeSystem reads the compact document of randgen 4×4 seed 2,
// the kind of inline IUT a diagnose_large request carries, with the server's
// strict reader.
func BenchmarkDecodeSystem(b *testing.B) {
	sys := randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 2})
	doc, err := sys.MarshalJSON()
	if err != nil {
		b.Fatal(err)
	}
	var data bytes.Buffer
	if err := json.Compact(&data, doc); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(data.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cfsm.ReadSystem(data.Bytes()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestReadSystemSpans: every span of the Figure 1 document, indented or
// compact, holds an object ReadTransition reads as the transition its Ref
// names; a document whose machines key or one machine's transitions key
// repeats reads as before but has no spans.
func TestReadSystemSpans(t *testing.T) {
	indented, err := os.ReadFile(filepath.Join("..", "..", "testdata", "figure1.json"))
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	for _, doc := range [][]byte{indented, compact.Bytes()} {
		sys, spans, err := cfsm.ReadSystemSpans(doc)
		if err != nil {
			t.Fatal(err)
		}
		if len(spans) != sys.NumTransitions() {
			t.Fatalf("%d spans for %d transitions", len(spans), sys.NumTransitions())
		}
		for k, span := range spans {
			if k > 0 && span.Start < spans[k-1].End {
				t.Fatalf("span %d overlaps its predecessor", k)
			}
			want, ok := sys.Transition(span.Ref)
			if !ok {
				t.Fatalf("span %d names no transition: %v", k, span.Ref)
			}
			got, dest, ok := cfsm.ReadTransition(doc[span.Start:span.End])
			wantDest := ""
			if want.Internal() {
				wantDest = sys.Machine(want.Dest).Name()
			}
			got.Dest = want.Dest
			if !ok || got != want || dest != wantDest {
				t.Fatalf("span %d reads %v to %q (%v), want %v to %q", k, got, dest, ok, want, wantDest)
			}
		}
	}
	const machine = `{"name":"M1","initial":"s0","states":["s0"],"transitions":[{"name":"t1","from":"s0","input":"a","output":"b","to":"s0"}]}`
	for _, doc := range []string{
		`{"machines":[` + machine + `],"machines":[` + machine + `]}`,
		`{"machines":[` + machine[:len(machine)-1] + `,"transitions":[{"name":"t1"}]}]}`,
	} {
		sys, spans, err := cfsm.ReadSystemSpans([]byte(doc))
		if err != nil || sys == nil || spans != nil {
			t.Errorf("%s: read %v with spans %v (%v), want the system without spans", doc, sys != nil, spans, err)
		}
	}
}

// TestReadTransition: exactly one transition object, with whitespace around
// it, reads under ReadSystem's rules; anything else is declined.
func TestReadTransition(t *testing.T) {
	const obj = `{"name":"t1","from":"s0","input":"a","output":"b","to":"s1","dest":"M2"}`
	got, dest, ok := cfsm.ReadTransition([]byte(" \n\t" + obj + "\r\n "))
	want := cfsm.Transition{Name: "t1", From: "s0", Input: "a", Output: "b", To: "s1"}
	if !ok || got != want || dest != "M2" {
		t.Fatalf("read %v to %q (%v), want %v to M2", got, dest, ok, want)
	}
	for _, data := range []string{
		``, `null`, `"t1"`, `[` + obj + `]`, obj + `,` + obj, obj + ` x`, `{"bogus":1}`,
		`{"name":1}`, `{"name":"t1"`,
	} {
		if _, _, ok := cfsm.ReadTransition([]byte(data)); ok {
			t.Errorf("%q reads as a transition object", data)
		}
	}
}
