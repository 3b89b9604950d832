package core

import (
	"context"
	"fmt"

	"cfsmdiag/internal/cfsm"
)

// ContextOracle is an Oracle that can honor cancellation while executing a
// single test case (e.g. an oracle driving a remote implementation). The
// context-aware entry points prefer ExecuteContext when the oracle provides
// it; plain Oracles are still canceled between test cases.
type ContextOracle interface {
	Oracle
	ExecuteContext(ctx context.Context, tc cfsm.TestCase) ([]cfsm.Observation, error)
}

// LocalizeContext is Localize with cancellation: the context is checked
// before every oracle execution and at every refinement-round boundary, so
// canceling it aborts an in-flight adaptive localization (Step 6 loop) with
// an error satisfying errors.Is(err, ctx.Err()).
func LocalizeContext(ctx context.Context, a *Analysis, oracle Oracle, opts ...Option) (*Localization, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	return localize(ctx, a, oracle, &cfg)
}

// DiagnoseContext is Diagnose with cancellation: suite execution, analysis
// and localization all stop at the next oracle or round boundary once the
// context is done. Under WithTrace the replay header (RecordRun) goes into
// the trace between suite execution and the analysis events. Without an
// engine from WithEngine for spec, the engine the diagnosis builds is
// released once the localization returns; later uses of the returned
// Analysis build a new one.
func DiagnoseContext(ctx context.Context, spec *cfsm.System, suite []cfsm.TestCase, oracle Oracle, opts ...Option) (*Localization, error) {
	cfg := defaultSettings()
	for _, opt := range opts {
		opt(&cfg)
	}
	in := newInstruments(cfg.registry, nil)
	wrapped := in.wrapOracle(oracle, ctx)
	observed := make([][]cfsm.Observation, len(suite))
	for i, tc := range suite {
		obs, err := wrapped.Execute(tc)
		if err != nil {
			return nil, fmt.Errorf("core: execute %s: %w", tc.Name, err)
		}
		observed[i] = obs
	}
	if err := RecordRun(cfg.trace, spec, suite, observed); err != nil {
		return nil, err
	}
	built := cfg.buildsEngine(spec)
	a, err := Analyze(spec, suite, observed, opts...)
	if err != nil {
		return nil, err
	}
	loc, err := localize(ctx, a, oracle, &cfg)
	if built {
		a.releaseEngine()
	}
	return loc, err
}
