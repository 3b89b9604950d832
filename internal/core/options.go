package core

import (
	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/trace"
)

// Option configures Analyze, Localize and the context-aware variants.
type Option func(*settings)

type settings struct {
	maxAdditionalTests int  // 0 = unbounded
	combinedEscalation bool // widen to combined faults before giving up
	addressEscalation  bool // widen to addressing faults before giving up
	tracer             Tracer
	registry           *obs.Registry    // nil = observability disabled
	trace              *trace.Tracer    // nil = structured tracing disabled
	engine             *compiled.Engine // nil = built per Analyze (engineFor)
	reference          bool             // WithEngine(nil): interpreted engine
	matcher            ObsMatcher       // nil = exact observation equality
}

func defaultSettings() settings {
	return settings{
		combinedEscalation: true,
		addressEscalation:  true,
		tracer:             nopTracer{},
	}
}

// WithMaxAdditionalTests bounds the number of additional diagnostic tests
// Step 6 may execute; when the budget runs out the unresolved hypotheses are
// reported as remaining (verdict ambiguous). A zero or negative budget means
// unbounded.
func WithMaxAdditionalTests(n int) Option {
	return func(s *settings) {
		if n > 0 {
			s.maxAdditionalTests = n
		}
	}
}

// WithoutCombinedEscalation disables the combined-fault fallback, restoring
// the paper's literal flag heuristic (see DESIGN.md §3).
func WithoutCombinedEscalation() Option {
	return func(s *settings) { s.combinedEscalation = false }
}

// WithoutAddressEscalation disables the addressing-fault extension tier, so
// only the paper's output/transfer fault model is hypothesized.
func WithoutAddressEscalation() Option {
	return func(s *settings) { s.addressEscalation = false }
}

// WithRegistry attaches an observability registry: oracle queries, symptom
// counts, candidate-set sizes per refinement round and Step-6 verdicts are
// recorded on it (see metrics.go for the family names). A nil registry — the
// default — disables instrumentation at no cost to the hot path.
func WithRegistry(r *obs.Registry) Option {
	return func(s *settings) { s.registry = r }
}

// ObsMatcher generalizes the pipeline's "predicted equals observed" test.
// The default (nil) is exact sequence equality — the classical single
// omniscient observer. The distributed-observation layer (internal/ports)
// supplies a matcher that compares per-port projections instead, realizing
// "some interleaving consistent with the local observations matches the
// prediction": with one deterministic prediction per variant, projection
// equality of prediction and recorded sequence is exactly that condition.
//
// A matcher must be reflexive and symmetric, and must be implied by exact
// equality (ObsEqual(a, b) ⇒ Equal(a, b)); hypothesis verification relies on
// the widening, never on a narrowing.
type ObsMatcher interface {
	// Equal reports whether the predicted sequence is compatible with the
	// recorded one. Both sequences answer the same input sequence, so they
	// have equal length.
	Equal(predicted, recorded []cfsm.Observation) bool
	// Mismatch describes why Equal is false, for elimination evidence.
	Mismatch(predicted, recorded []cfsm.Observation) string
}

// WithObsMatcher installs an observation matcher for the whole pipeline:
// hypothesis verification (explains), Step-6 variant elimination and the
// discriminating-test search all compare observation sequences through it.
// Analyze additionally widens the unique-symptom-transition and internal-
// output hypothesis spaces to the full combined (state, output) space, since
// under a non-exact matcher the recorded symptom symbol no longer pins the
// faulty output uniquely. A nil matcher (the default) keeps every code path
// byte-identical to the classical pipeline.
func WithObsMatcher(m ObsMatcher) Option {
	return func(s *settings) { s.matcher = m }
}

// WithEngine runs the diagnosis on a prebuilt compiled engine instead of
// one built per Analyze call — a sweep worker reuses one engine, with its
// compiled suite installed, across every mutant. The engine must have been
// built for the specification passed to Analyze/Diagnose; one built for
// another specification is ignored. A nil engine names the interpreted
// reference engine, which the differential tests compare the compiled one
// against. The engine never changes a verdict: every engine produces
// byte-identical Analyses and Localizations.
func WithEngine(e *compiled.Engine) Option {
	return func(s *settings) {
		s.engine = e
		s.reference = e == nil
	}
}
