package ports_test

import (
	"reflect"
	"testing"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/ports"
)

// FuzzProjectRoundTrip drives the projection/consistency laws from raw
// bytes: an arbitrary observation sequence over Figure 1's machines is
// projected, canonically re-interleaved, and matched against the
// specification's expectation. The invariants under fuzz are exactly the
// ones the analysis relies on: projection is insensitive to
// canonicalization, canonicalization is idempotent, and every consistent
// interleaving the matcher synthesizes re-projects to the observed local
// traces.
func FuzzProjectRoundTrip(f *testing.F) {
	fig, err := paper.Figure1()
	if err != nil {
		f.Fatal(err)
	}
	suite := paper.TestSuite()
	f.Add([]byte{0, 1, 2, 3, 4, 5}, uint8(0))
	f.Add([]byte{7, 7, 7, 9, 0, 255, 3}, uint8(1))
	f.Add([]byte{}, uint8(2))

	// The symbol pool: everything Figure 1 can ever emit, plus silence and a
	// foreign symbol, so the fuzzer can build both plausible and corrupted
	// observation sequences.
	var pool []cfsm.Symbol
	seen := map[cfsm.Symbol]bool{}
	for i := 0; i < fig.N(); i++ {
		for _, tr := range fig.Machine(i).Transitions() {
			if !seen[tr.Output] {
				seen[tr.Output] = true
				pool = append(pool, tr.Output)
			}
		}
	}
	pool = append(pool, cfsm.Epsilon, "zz-foreign")

	f.Fuzz(func(t *testing.T, raw []byte, tcPick uint8) {
		tc := suite[int(tcPick)%len(suite)]
		pm := perMachineMap(t, fig)

		// Build a syntactically well-formed observation sequence for the test
		// case: one observation per input, Null forced at reset slots (the
		// simulator can produce nothing else there), the fuzz bytes choosing
		// symbol and machine port everywhere else.
		global := make([]cfsm.Observation, len(tc.Inputs))
		at := func(i int) byte {
			if len(raw) == 0 {
				return 0
			}
			return raw[i%len(raw)]
		}
		for i, in := range tc.Inputs {
			if in.IsReset() {
				global[i] = cfsm.Observation{Sym: cfsm.Null, Port: in.Port}
				continue
			}
			sym := pool[int(at(2*i))%len(pool)]
			port := int(at(2*i+1)) % fig.N()
			global[i] = cfsm.Observation{Sym: sym, Port: port}
		}

		p := ports.Project(pm, global)
		if !ports.Consistent(pm, global, p) {
			t.Fatal("a sequence is inconsistent with its own projection")
		}

		canon := ports.Canonical(pm, tc, global)
		if !ports.Project(pm, canon).Equal(p) {
			t.Fatal("canonicalization changed the projection")
		}
		canon2 := ports.Canonical(pm, tc, canon)
		for i := range canon {
			if canon[i] != canon2[i] {
				t.Fatalf("canonicalization not idempotent at slot %d: %v vs %v", i, canon[i], canon2[i])
			}
		}

		expected, err := fig.Run(tc)
		if err != nil {
			t.Fatal(err)
		}
		res, err := ports.Match(pm, tc, expected, p)
		if err != nil {
			// Validation may legitimately reject fuzzed sequences (e.g. more
			// events than non-reset slots can carry is impossible here, but a
			// foreign symbol is still a fine observation); an error must not
			// coexist with a usable result.
			if res.Completion != nil {
				t.Fatal("Match returned both an error and a completion")
			}
			return
		}
		if len(res.Completion) != len(expected) {
			t.Fatalf("completion length %d, want %d", len(res.Completion), len(expected))
		}
		if !ports.Consistent(pm, res.Completion, p) {
			t.Fatal("the synthesized interleaving does not re-project to the observed local traces")
		}
		if res.Full != (res.L == len(expected)) {
			t.Fatalf("Full=%v, L=%d/%d", res.Full, res.L, len(expected))
		}
		if res.Full != ports.Project(pm, expected).Equal(p) {
			t.Fatal("Full disagrees with projection equality")
		}
		for j := 0; j < res.L; j++ {
			if res.Completion[j] != expected[j] {
				t.Fatalf("completion disagrees with the expectation inside the matched prefix at %d", j)
			}
		}
		if !res.Full {
			a, b := res.Completion[res.L], expected[res.L]
			if a == b || (ports.Silent(a) && ports.Silent(b)) {
				t.Fatalf("completion does not visibly diverge at L=%d: %v vs %v", res.L, a, b)
			}
		}
	})
}

// FuzzPortMap feeds arbitrary bytes to FromJSON against Figure 1. Decoding
// must never panic, and every accepted map must survive a ToJSON/FromJSON
// round trip unchanged.
func FuzzPortMap(f *testing.F) {
	fig, err := paper.Figure1()
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte(`{"M1":"site-a","M2":"site-b","M3":"site-c"}`))
	f.Add([]byte(`{"M1":"hub","M2":"hub","M3":"hub"}`))
	f.Add([]byte(`{"M1":"a","M2":"b"}`))
	f.Add([]byte(`{"M1":"a","M2":"b","M3":"c","M4":"d"}`))
	f.Add([]byte(`{"M1":"","M2":"b","M3":"c"}`))
	f.Add([]byte(`{"M1":"a","M1":"b","M2":"b","M3":"\u00e9"}`))
	f.Add([]byte(`null`))
	f.Add([]byte(`[]`))
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ports.FromJSON(data, fig)
		if err != nil {
			return
		}
		if m.Machines() != fig.N() {
			t.Fatalf("accepted map covers %d machines, system has %d", m.Machines(), fig.N())
		}
		doc, err := m.ToJSON(fig)
		if err != nil {
			t.Fatalf("ToJSON of an accepted map: %v", err)
		}
		back, err := ports.FromJSON(doc, fig)
		if err != nil {
			t.Fatalf("FromJSON(ToJSON(m)) = %v for %s", err, doc)
		}
		if !reflect.DeepEqual(back, m) {
			t.Fatalf("round trip changed the map: %s decoded to %+v, want %+v", doc, back, m)
		}
	})
}
