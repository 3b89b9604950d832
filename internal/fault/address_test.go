package fault

import (
	"strings"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
)

func TestKindAddressString(t *testing.T) {
	if got := KindAddress.String(); got != "address" {
		t.Errorf("KindAddress.String() = %q", got)
	}
}

func TestAddressFaultValidateApply(t *testing.T) {
	spec := paper.MustFigure1()
	// t5 (M1: s1 -f/c'→M3-> s1) redirected to M2: c' is receivable by M2's
	// external transitions t'1/t'3, so the rewire is legal.
	f := Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t5"}, Kind: KindAddress, Dest: paper.M2}
	if err := f.Validate(spec); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	mut, err := f.Apply(spec)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	tr, _ := mut.Transition(f.Ref)
	if tr.Dest != paper.M2 || tr.Output != "c'" {
		t.Fatalf("mutant transition = %v", tr)
	}
	// Behaviour check: in tc2 the final f^1 now pings M2 instead of M3.
	tc := paper.TestSuite()[1]
	obs, err := mut.Run(tc)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	last := obs[len(obs)-1]
	if last.Port != paper.M2 {
		t.Fatalf("last observation = %v, want a response at port 2", last)
	}
}

func TestAddressFaultDescribe(t *testing.T) {
	spec := paper.MustFigure1()
	f := Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t5"}, Kind: KindAddress, Dest: paper.M2}
	want := "M1.t5 addresses M2 instead of M3"
	if got := f.Describe(spec); got != want {
		t.Errorf("Describe = %q, want %q", got, want)
	}
	env := Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t5"}, Kind: KindAddress, Dest: cfsm.DestEnv}
	if got := env.Describe(spec); !strings.Contains(got, "its own port") {
		t.Errorf("Describe(env) = %q", got)
	}
}

func TestAddressFaultRejectsInvalid(t *testing.T) {
	spec := paper.MustFigure1()
	tests := []struct {
		name string
		f    Fault
	}{
		{
			name: "unchanged destination",
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t5"}, Kind: KindAddress, Dest: paper.M3},
		},
		{
			name: "unknown transition",
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "zz"}, Kind: KindAddress, Dest: paper.M2},
		},
		{
			name: "destination out of range",
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t5"}, Kind: KindAddress, Dest: 9},
		},
		{
			// Redirecting an external transition whose input is shared with
			// other external transitions would break the IEO/IIO partition:
			// t1's input a stays external in t8/t9, so a cannot also become
			// an internal input of M1.
			name: "partition violation",
			f:    Fault{Ref: cfsm.Ref{Machine: paper.M1, Name: "t1"}, Kind: KindAddress, Dest: paper.M2},
		},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if err := tc.f.Validate(spec); err == nil {
				t.Errorf("Validate(%+v) should fail", tc.f)
			}
		})
	}
}

func TestEnumerateAddress(t *testing.T) {
	spec := paper.MustFigure1()
	faults := EnumerateAddress(spec)
	if len(faults) == 0 {
		t.Fatal("no addressing faults enumerated")
	}
	seen := make(map[string]bool, len(faults))
	for _, f := range faults {
		if f.Kind != KindAddress {
			t.Fatalf("wrong kind: %+v", f)
		}
		if err := f.Validate(spec); err != nil {
			t.Fatalf("enumerated fault invalid: %v", err)
		}
		key := f.Describe(spec)
		if seen[key] {
			t.Fatalf("duplicate: %s", key)
		}
		seen[key] = true
	}
}
