// Package replay turns a recorded diagnosis trace into an offline,
// reproducible re-run of the localization.
//
// A trace recorded by a traced core.DiagnoseContext (its core.RecordRun
// header: specification snapshot, suite, observed outputs) plus the
// localize.test events that core.Localize emits under core.WithTrace
// contains everything Step 6 learned from the live implementation.  Load reconstructs that material and Run.Localize re-runs
// Analyze + Localize with a CannedOracle that answers every diagnostic test
// from the recording — no live oracle, no implementation, and a guaranteed
// error if the replayed localization ever asks a question the original run
// did not ask.  Because the algorithm is deterministic, the replay must
// reproduce the identical Localization; Check verifies it against the
// recorded verdict.
package replay

import (
	"fmt"
	"sort"
	"strconv"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/trace"
)

// Run is the material reconstructed from a recorded trace.
type Run struct {
	Spec     *cfsm.System
	Suite    []cfsm.TestCase
	Observed [][]cfsm.Observation
	// Answers maps a formatted input sequence (cfsm.FormatInputs) to the
	// outputs the live oracle produced for it, from localize.test events.
	Answers map[string][]cfsm.Observation
	// Unreliable holds the input sequences whose recorded execution never
	// produced a trustworthy observation (localize.test events flagged
	// unreliable); the canned oracle re-answers them with
	// core.ErrUnreliableObservation so an inconclusive run replays to the
	// same inconclusive verdict.
	Unreliable map[string]bool
	// Verdict and Fault record the original run's outcome (localize.verdict),
	// for cross-checking the replay; Fault is empty unless localized.
	Verdict string
	Fault   string
	// Rounds counts the recorded localize.round spans.
	Rounds int
}

// Load reconstructs a Run from trace events.  The trace must contain the
// core.RecordRun header; localization events are optional (a no-fault run has none).
func Load(events []trace.Event) (*Run, error) {
	if len(events) == 0 {
		return nil, fmt.Errorf("replay: trace contains no events: %w", trace.ErrTruncatedTrace)
	}
	r := &Run{Answers: make(map[string][]cfsm.Observation), Unreliable: make(map[string]bool)}
	type indexed struct {
		index int
		tc    cfsm.TestCase
	}
	var cases []indexed
	obsByIndex := make(map[int][]cfsm.Observation)
	for _, e := range events {
		switch e.Kind {
		case trace.KindRunSpec:
			if r.Spec != nil {
				return nil, fmt.Errorf("replay: duplicate %s event", trace.KindRunSpec)
			}
			sys, err := cfsm.ParseSystem([]byte(e.Attrs["system"]))
			if err != nil {
				return nil, fmt.Errorf("replay: parse recorded specification: %w", err)
			}
			r.Spec = sys
		case trace.KindRunCase:
			idx, err := strconv.Atoi(e.Attrs["index"])
			if err != nil {
				return nil, fmt.Errorf("replay: %s event with index %q", e.Kind, e.Attrs["index"])
			}
			inputs, err := cfsm.ParseInputs(e.Attrs["inputs"])
			if err != nil {
				return nil, fmt.Errorf("replay: case %d: %w", idx, err)
			}
			cases = append(cases, indexed{index: idx, tc: cfsm.TestCase{Name: e.Attrs["name"], Inputs: inputs}})
		case trace.KindRunObserved:
			idx, err := strconv.Atoi(e.Attrs["index"])
			if err != nil {
				return nil, fmt.Errorf("replay: %s event with index %q", e.Kind, e.Attrs["index"])
			}
			obs, err := cfsm.ParseObs(e.Attrs["outputs"])
			if err != nil {
				return nil, fmt.Errorf("replay: observed outputs of case %d: %w", idx, err)
			}
			obsByIndex[idx] = obs
		case trace.KindTest:
			if e.Attrs["unreliable"] == "true" {
				r.Unreliable[e.Attrs["inputs"]] = true
				continue
			}
			obs, err := cfsm.ParseObs(e.Attrs["observed"])
			if err != nil {
				return nil, fmt.Errorf("replay: recorded answer for %q: %w", e.Attrs["inputs"], err)
			}
			r.Answers[e.Attrs["inputs"]] = obs
		case trace.KindVerdict:
			r.Verdict = e.Attrs["verdict"]
			r.Fault = e.Attrs["fault"]
		case trace.KindRound:
			if e.Phase == trace.PhaseBegin {
				r.Rounds++
			}
		}
	}
	if r.Spec == nil {
		return nil, fmt.Errorf("replay: trace has no %s header event — %w, or recorded without core.RecordRun", trace.KindRunSpec, trace.ErrTruncatedTrace)
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].index < cases[j].index })
	for pos, c := range cases {
		if c.index != pos {
			return nil, fmt.Errorf("replay: suite case indices are not contiguous (missing %d)", pos)
		}
		obs, ok := obsByIndex[c.index]
		if !ok {
			return nil, fmt.Errorf("replay: no observed outputs recorded for case %d (%s)", c.index, c.tc.Name)
		}
		r.Suite = append(r.Suite, c.tc)
		r.Observed = append(r.Observed, obs)
	}
	if len(r.Suite) == 0 {
		return nil, fmt.Errorf("replay: trace records no test-suite cases: %w", trace.ErrTruncatedTrace)
	}
	return r, nil
}

// CannedOracle answers diagnostic tests from a recording.  It is backed by
// no system at all, so a localization driven by it performs zero live test
// executions; an unrecorded query is an error, never a silent fallback.
type CannedOracle struct {
	answers    map[string][]cfsm.Observation
	unreliable map[string]bool
	// Queries counts Execute calls (all answered from the recording).
	Queries int
}

var _ core.Oracle = (*CannedOracle)(nil)

// Execute implements core.Oracle from the recorded answers.  A query the
// original run recorded as unreliable is re-answered with
// core.ErrUnreliableObservation, reproducing the inconclusive outcome.
func (o *CannedOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	o.Queries++
	key := cfsm.FormatInputs(tc.Inputs)
	if o.unreliable[key] {
		return nil, fmt.Errorf("replay: test %q was recorded as unreliable: %w", key, core.ErrUnreliableObservation)
	}
	obs, ok := o.answers[key]
	if !ok {
		return nil, fmt.Errorf("replay: test %q was not recorded; the replayed localization diverged from the original run", key)
	}
	return obs, nil
}

// Localize re-runs Steps 1–6 offline from the recorded material and returns
// the resulting localization together with the canned oracle that served it.
func (r *Run) Localize(opts ...core.Option) (*core.Localization, *CannedOracle, error) {
	a, err := core.Analyze(r.Spec, r.Suite, r.Observed, opts...)
	if err != nil {
		return nil, nil, err
	}
	oracle := &CannedOracle{answers: r.Answers, unreliable: r.Unreliable}
	loc, err := core.Localize(a, oracle, opts...)
	if err != nil {
		return nil, nil, err
	}
	return loc, oracle, nil
}

// Check verifies a replayed localization against the recorded outcome.
func (r *Run) Check(loc *core.Localization) error {
	if r.Verdict == "" {
		return fmt.Errorf("replay: trace records no localize.verdict event to check against: %w", trace.ErrTruncatedTrace)
	}
	if got := loc.Verdict.String(); got != r.Verdict {
		return fmt.Errorf("replay: verdict %q does not reproduce recorded %q", got, r.Verdict)
	}
	got := ""
	if loc.Fault != nil {
		got = loc.Fault.Describe(loc.Analysis.Spec)
	}
	if got != r.Fault {
		return fmt.Errorf("replay: fault %q does not reproduce recorded %q", got, r.Fault)
	}
	return nil
}
