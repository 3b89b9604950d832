package fault

import (
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindOutput, "output"},
		{KindTransfer, "transfer"},
		{KindBoth, "output+transfer"},
		{Kind(0), "Kind(0)"},
	}
	for _, tc := range tests {
		if got := tc.kind.String(); got != tc.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tc.kind), got, tc.want)
		}
	}
}

func TestValidate(t *testing.T) {
	spec := paper.MustFigure1()
	t7 := cfsm.Ref{Machine: paper.M1, Name: "t7"}
	tests := []struct {
		name    string
		f       Fault
		wantErr string
	}{
		{
			name: "valid output fault",
			f:    Fault{Ref: t7, Kind: KindOutput, Output: "c'"},
		},
		{
			name: "valid transfer fault",
			f:    Fault{Ref: paper.FaultRef, Kind: KindTransfer, To: "s0"},
		},
		{
			name: "valid combined fault",
			f:    Fault{Ref: t7, Kind: KindBoth, Output: "c'", To: "s2"},
		},
		{
			name:    "unknown transition",
			f:       Fault{Ref: cfsm.Ref{Machine: 0, Name: "zz"}, Kind: KindOutput, Output: "c'"},
			wantErr: "no transition",
		},
		{
			name:    "invalid kind",
			f:       Fault{Ref: t7, Kind: Kind(9)},
			wantErr: "invalid kind",
		},
		{
			name:    "output fault equal to spec output",
			f:       Fault{Ref: t7, Kind: KindOutput, Output: "d'"},
			wantErr: "must change the output",
		},
		{
			name:    "output outside class alphabet",
			f:       Fault{Ref: t7, Kind: KindOutput, Output: "zz"},
			wantErr: "outside the transition's class alphabet",
		},
		{
			name:    "transfer to spec next state",
			f:       Fault{Ref: t7, Kind: KindTransfer, To: "s0"},
			wantErr: "must change the next state",
		},
		{
			name:    "transfer to unknown state",
			f:       Fault{Ref: t7, Kind: KindTransfer, To: "s9"},
			wantErr: "not a state",
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.f.Validate(spec)
			if tc.wantErr == "" {
				if err != nil {
					t.Fatalf("Validate: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("Validate = %v, want containing %q", err, tc.wantErr)
			}
		})
	}
}

func TestApply(t *testing.T) {
	spec := paper.MustFigure1()
	f := Fault{Ref: paper.FaultRef, Kind: KindTransfer, To: "s0"}
	mut, err := f.Apply(spec)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	tr, _ := mut.Transition(paper.FaultRef)
	if tr.To != "s0" || tr.Output != "b" {
		t.Fatalf("mutant transition = %v", tr)
	}
	// The mutant must reproduce the paper's observed Table 1 outputs.
	want, err := paper.FaultyImplementation()
	if err != nil {
		t.Fatalf("FaultyImplementation: %v", err)
	}
	for _, tc := range paper.TestSuite() {
		a, errA := mut.Run(tc)
		b, errB := want.Run(tc)
		if errA != nil || errB != nil || !cfsm.ObsEqual(a, b) {
			t.Fatalf("mutant behaviour differs from the paper's IUT on %s", tc.Name)
		}
	}
	// Applying an invalid fault must fail.
	bad := Fault{Ref: paper.FaultRef, Kind: KindTransfer, To: "s1"}
	if _, err := bad.Apply(spec); err == nil {
		t.Fatal("Apply of invalid fault should fail")
	}
}

func TestDescribe(t *testing.T) {
	spec := paper.MustFigure1()
	tests := []struct {
		f    Fault
		want string
	}{
		{
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t7"}, Kind: KindOutput, Output: "c'"},
			want: "M1.t7 outputs c' instead of d'",
		},
		{
			f:    Fault{Ref: paper.FaultRef, Kind: KindTransfer, To: "s0"},
			want: `M3.t"4 transfers to s0 instead of s1`,
		},
		{
			f:    Fault{Ref: paper.FaultRef, Kind: KindBoth, Output: "a", To: "s0"},
			want: `M3.t"4 outputs a instead of b and transfers to s0 instead of s1`,
		},
		{
			f:    Fault{Ref: cfsm.Ref{Machine: 0, Name: "zz"}, Kind: KindOutput},
			want: "M1.zz: unknown transition",
		},
		{
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t7"}, Kind: Kind(9)},
			want: "M1.t7: invalid fault kind",
		},
	}
	for _, tc := range tests {
		if got := tc.f.Describe(spec); got != tc.want {
			t.Errorf("Describe = %q, want %q", got, tc.want)
		}
	}
}

func TestEnumerate(t *testing.T) {
	spec := paper.MustFigure1()
	faults := Enumerate(spec)
	// Count expectations: every transition has 2 alternative next states
	// (3 states per machine). Output alternatives: each transition's class
	// alphabet has exactly 2 symbols in the Figure 1 system except
	// OIO(M3>M2) = {o,p} (2) and OEO/OIO pairs of size 2 — so exactly one
	// alternative output per transition.
	wantPerTransition := 1 /*output*/ + 2 /*transfer*/ + 2 /*both*/
	if want := spec.NumTransitions() * wantPerTransition; len(faults) != want {
		t.Fatalf("Enumerate returned %d faults, want %d", len(faults), want)
	}
	seen := make(map[string]bool, len(faults))
	for _, f := range faults {
		if err := f.Validate(spec); err != nil {
			t.Fatalf("enumerated fault invalid: %v", err)
		}
		key := f.Describe(spec)
		if seen[key] {
			t.Fatalf("duplicate fault: %s", key)
		}
		seen[key] = true
	}
}

// TestMutants applies every enumerated fault: each realizes a mutant that
// changes exactly what its kind says.
func TestMutants(t *testing.T) {
	spec := paper.MustFigure1()
	for _, f := range Enumerate(spec) {
		mutant, err := f.Apply(spec)
		if err != nil {
			t.Fatalf("%s does not apply: %v", f.Describe(spec), err)
		}
		tr, ok := mutant.Transition(f.Ref)
		if !ok {
			t.Fatalf("mutant lost transition %v", f.Ref)
		}
		spectr, _ := spec.Transition(f.Ref)
		if (tr.Output != spectr.Output) != (f.Kind != KindTransfer) {
			t.Errorf("%s: output %s, spec %s", f.Describe(spec), tr.Output, spectr.Output)
		}
		if (tr.To != spectr.To) != (f.Kind != KindOutput) {
			t.Errorf("%s: next state %s, spec %s", f.Describe(spec), tr.To, spectr.To)
		}
	}
}
