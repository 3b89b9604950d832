package server

import (
	"bytes"
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// system builds the implementation under test as a system: the one read in
// full, or the specification with the patch's fault applied.
func (iut iutModel) system(t testing.TB, spec *cfsm.System) *cfsm.System {
	t.Helper()
	if iut.sys != nil {
		return iut.sys
	}
	if iut.f.Kind == 0 {
		return spec
	}
	sys, err := iut.f.Apply(spec)
	if err != nil {
		t.Fatalf("apply the patch %s: %v", iut.f.Describe(spec), err)
	}
	return sys
}

// patchDoc is one spelling of a specification document with what the patch
// reads of it: its transition spans and the compiled program.
type patchDoc struct {
	name  string
	spec  *cfsm.System
	spell func(testing.TB, *cfsm.System) []byte
	doc   []byte
	spans []cfsm.TransitionSpan
	prog  *compiled.Program
	tour  []cfsm.TestCase
}

// indented and compact are the two spellings of a system document.
func indented(t testing.TB, sys *cfsm.System) []byte {
	t.Helper()
	doc, err := sys.MarshalJSON()
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

func compact(t testing.TB, sys *cfsm.System) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.Compact(&b, indented(t, sys)); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// patchDocs returns the indented and compact documents of Figure 1 and of
// the randgen 4x4 seed-2 specification.
func patchDocs(t testing.TB) []patchDoc {
	t.Helper()
	specs := []struct {
		name string
		sys  *cfsm.System
	}{
		{"figure1", paper.MustFigure1()},
		{"randgen-4x4-seed2", randgen.MustGenerate(randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: 2})},
	}
	var docs []patchDoc
	for _, s := range specs {
		prog, err := compiled.Compile(s.sys)
		if err != nil {
			t.Fatal(err)
		}
		tour, _ := testgen.Tour(s.sys, 0)
		for _, spell := range []struct {
			name string
			fn   func(testing.TB, *cfsm.System) []byte
		}{{"indented", indented}, {"compact", compact}} {
			doc := spell.fn(t, s.sys)
			_, spans, err := cfsm.ReadSystemSpans(doc)
			if err != nil || len(spans) != s.sys.NumTransitions() {
				t.Fatalf("%s %s: %d spans for %d transitions (%v)", s.name, spell.name, len(spans), s.sys.NumTransitions(), err)
			}
			docs = append(docs, patchDoc{s.name + "/" + spell.name, s.sys, spell.fn, doc, spans, prog, tour})
		}
	}
	return docs
}

// mutants returns every single-transition and every addressing mutant.
func mutants(spec *cfsm.System) []fault.Fault {
	return append(fault.Enumerate(spec), fault.EnumerateAddress(spec)...)
}

// mutantObject returns the index of the transition object the fault
// rewrites and the object as the mutant's document spells it.
func (d patchDoc) mutantObject(t testing.TB, f fault.Fault) (int, []byte) {
	t.Helper()
	mut, err := f.Apply(d.spec)
	if err != nil {
		t.Fatal(err)
	}
	doc := d.spell(t, mut)
	_, spans, err := cfsm.ReadSystemSpans(doc)
	if err != nil {
		t.Fatal(err)
	}
	k := slices.IndexFunc(spans, func(s cfsm.TransitionSpan) bool { return s.Ref == f.Ref })
	if k < 0 || d.spans[k].Ref != f.Ref {
		t.Fatalf("%s: the mutant's object of %s is not where the specification's is", d.name, d.spec.RefString(f.Ref))
	}
	return k, doc[spans[k].Start:spans[k].End]
}

// word reads fuzzer bytes as an input word over the specification's
// external inputs and the reset.
func (d patchDoc) word(b []byte) cfsm.TestCase {
	inputs := d.spec.AllInputs()
	tc := cfsm.TestCase{Name: "word"}
	for _, c := range b {
		if k := int(c) % (len(inputs) + 1); k < len(inputs) {
			tc.Inputs = append(tc.Inputs, inputs[k])
		} else {
			tc.Inputs = append(tc.Inputs, cfsm.Reset())
		}
	}
	return tc
}

// checkPatch holds the patch of iutDoc to the full read of it: when the
// patch accepts, cfsm.ReadSystem accepts too, the patch's system is the one
// the read builds, and the overlay runner observes what System.Run of that
// system observes on the tour and on the extra cases. It reports whether
// the patch accepted.
func (d patchDoc) checkPatch(t *testing.T, iutDoc []byte, extra ...cfsm.TestCase) bool {
	t.Helper()
	model, patched := patchIUT(d.prog, d.spans, d.doc, iutDoc)
	if !patched {
		return false
	}
	full, err := cfsm.ReadSystem(iutDoc)
	if err != nil {
		t.Fatalf("%s: the patch accepts an IUT the full read rejects (%v):\n%s", d.name, err, iutDoc)
	}
	if got, want := compiled.ModelHash(model.system(t, d.spec)), compiled.ModelHash(full); got != want {
		t.Fatalf("%s: the patch runs another system than the full read builds:\n%s", d.name, iutDoc)
	}
	oracle := &compiled.Oracle{R: d.prog.RunnerFor(model.ov)}
	for _, tc := range append(slices.Clip(d.tour), extra...) {
		got, gotErr := oracle.Execute(tc)
		want, wantErr := full.Run(tc)
		if !reflect.DeepEqual(got, want) || (gotErr == nil) != (wantErr == nil) ||
			gotErr != nil && gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: %v: the overlay observes %v (%v), the full read %v (%v)", d.name, tc, got, gotErr, want, wantErr)
		}
	}
	return true
}

// TestIUTPatchCoversMutants: the document of every single-transition and
// every addressing mutant, in its specification's spelling, is patched, and
// the patch runs what the full read of it runs. A document equal to the
// specification's is the specification.
func TestIUTPatchCoversMutants(t *testing.T) {
	for _, d := range patchDocs(t) {
		t.Run(d.name, func(t *testing.T) {
			if model, ok := patchIUT(d.prog, d.spans, d.doc, slices.Clone(d.doc)); !ok || model.f != (fault.Fault{}) {
				t.Fatalf("the specification's own document is not the specification: %+v, %v", model, ok)
			}
			for _, f := range mutants(d.spec) {
				mut, err := f.Apply(d.spec)
				if err != nil {
					t.Fatal(err)
				}
				if !d.checkPatch(t, d.spell(t, mut)) {
					t.Fatalf("%s is not patched", f.Describe(d.spec))
				}
			}
		})
	}
}

// FuzzIUTPatch splices fuzzer bytes in place of one transition object of a
// specification document and holds the patch to the full read of the
// result (checkPatch), on the tour and on a fuzzer-chosen input word. The
// seeds put the objects of mutants in place.
func FuzzIUTPatch(f *testing.F) {
	docs := patchDocs(f)
	for i, d := range docs {
		faults := mutants(d.spec)
		for j := 0; j < len(faults); j += max(1, len(faults)/32) {
			k, obj := d.mutantObject(f, faults[j])
			f.Add(uint8(i), uint16(k), obj, []byte{0, 1, 2, 3, 255, 4, 5, 6})
		}
	}
	f.Fuzz(func(t *testing.T, which uint8, at uint16, obj, word []byte) {
		d := docs[int(which)%len(docs)]
		span := d.spans[int(at)%len(d.spans)]
		iutDoc := slices.Concat(d.doc[:span.Start], obj, d.doc[span.End:])
		d.checkPatch(t, iutDoc, d.word(word))
	})
}

// TestIUTPatchNeedsSpans: a specification document whose machines key, or
// one machine's transitions key, appears twice records no spans, so a
// rewrite of one of its transition objects is read in full, while the
// document itself still stands for the specification.
func TestIUTPatchNeedsSpans(t *testing.T) {
	const (
		t1      = `{"name":"t1","from":"s0","input":"a","output":"x","to":"s0"}`
		t2      = `{"name":"t2","from":"s0","input":"b","output":"y","to":"s0"}`
		machine = `{"name":"M1","initial":"s0","states":["s0"],"transitions":[` + t1 + `,` + t2 + `]`
	)
	s := newTestAPI(Config{})
	for _, spec := range []string{
		`{"machines":[` + machine + `}],"Machines":[` + machine + `}]}`,
		`{"machines":[` + machine + `,"transitions":[` + t1 + `,` + t2 + `]}]}`,
	} {
		iut := strings.Replace(spec, `"output":"y"`, `"output":"x"`, 1)
		var patched []bool
		for _, doc := range []string{spec, iut} {
			_, model, _, _, err := s.prepareDiagnose(diagnoseRequest{Spec: []byte(spec), IUT: []byte(doc)})
			if err != nil {
				t.Fatal(err)
			}
			patched = append(patched, model.sys == nil)
		}
		if !slices.Equal(patched, []bool{true, false}) {
			t.Fatalf("%s: patched %v, want the specification's own document patched and the rewrite read in full", spec, patched)
		}
	}
}
