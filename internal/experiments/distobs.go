package experiments

import (
	"context"
	"fmt"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/compiled"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/ports"
)

// DistObsRow records one mutant's global-vs-distributed comparison in the
// E18 experiment.
type DistObsRow struct {
	Fault string
	// GlobalDiagnoses and LocalDiagnoses are the candidate-set sizes after
	// Steps 1–5 under global and per-machine observation.
	GlobalDiagnoses int
	LocalDiagnoses  int
	// GlobalVerdict and LocalVerdict are the Step 6 outcomes.
	GlobalVerdict string
	LocalVerdict  string
	// GlobalTests and LocalTests count oracle executions end to end.
	GlobalTests int
	LocalTests  int
	// Recovered reports that Step 6 still reached a sound localized verdict
	// under distributed observation although Steps 1–5 left a strictly larger
	// candidate set: the adaptive tests were projection-distinguishing.
	Recovered bool
}

// DistObsResult aggregates the E18 distributed-observation experiment on one
// system: every single-transition mutant is diagnosed twice, once from the
// global observation sequence and once from per-machine local projections
// only, and the localization cost and candidate precision are compared.
type DistObsResult struct {
	System  string
	Mutants int
	// Detected counts mutants whose suite run produced a symptom under global
	// observation (the comparison is defined on these).
	Detected int
	// Enlarged counts detected mutants whose Steps 1–5 candidate set is
	// strictly larger under per-machine observation — global order that the
	// diagnosis was actually using.
	Enlarged int
	// Recovered counts enlarged mutants where adaptive Step 6 nevertheless
	// converged to a sound localized verdict from projections alone.
	Recovered int
	// Degraded counts detected mutants where the distributed verdict is
	// weaker than the global one (localized → ambiguous/inconclusive).
	Degraded int
	// LocallyAmbiguous totals candidates reported as distinguishable only
	// under global observation.
	LocallyAmbiguous int
	// WrongConvictions counts distributed runs convicting a transition that
	// is locally distinguishable from the true mutant — the soundness
	// property demands zero.
	WrongConvictions int
	// GlobalTests and LocalTests total the oracle executions of both modes.
	GlobalTests int
	LocalTests  int
	// Examples lists the first few enlarged cases for the report.
	Examples []DistObsRow
}

// DistObsOptions tunes RunDistObs.
type DistObsOptions struct {
	// Workers is the number of goroutines diagnosing mutants concurrently
	// (0 = serial). Each worker owns its compiled engine and overlay
	// runner; the specification and suite are shared read-only.
	Workers int
	// MaxExamples bounds the Examples list (0 = 5).
	MaxExamples int
}

// RunDistObs runs experiment E18 on one system: for every single-transition
// mutant, diagnose once from the global observation sequence and once from
// per-machine local projections (the finest port map), then compare
// candidate-set sizes, verdicts and oracle cost. A distributed conviction of
// a transition that some projection could still tell apart from the truth is
// counted in WrongConvictions; the pipeline's guarantee is that this never
// happens — ambiguity degrades to the inconclusive taxonomy instead.
func RunDistObs(name string, spec *cfsm.System, suite []cfsm.TestCase, opts DistObsOptions) (DistObsResult, error) {
	res := DistObsResult{System: name}
	maxExamples := opts.MaxExamples
	if maxExamples <= 0 {
		maxExamples = 5
	}
	portOf := make([]string, spec.N())
	for i := range portOf {
		portOf[i] = fmt.Sprintf("site-%02d", i)
	}
	pm, err := ports.New(spec, portOf)
	if err != nil {
		return res, err
	}
	faults := fault.Enumerate(spec)
	res.Mutants = len(faults)
	rows, err := mapMutants(context.Background(), spec, suite, faults, max(opts.Workers, 1), nil,
		func(_ context.Context, w sweepWorker, f fault.Fault) (*DistObsRow, error) {
			row, err := distObsOne(w, pm, f)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f.Describe(spec), err)
			}
			return row, nil
		})
	if err != nil {
		return res, err
	}
	for _, row := range rows {
		if row == nil {
			continue // undetected: no symptom to compare
		}
		res.Detected++
		res.GlobalTests += row.GlobalTests
		res.LocalTests += row.LocalTests
		if row.LocalDiagnoses > row.GlobalDiagnoses {
			res.Enlarged++
			if row.Recovered {
				res.Recovered++
			}
			if len(res.Examples) < maxExamples {
				res.Examples = append(res.Examples, *row)
			}
		}
		if row.LocalVerdict == "wrong" {
			res.WrongConvictions++
		}
		if row.GlobalVerdict == core.VerdictLocalized.String() && row.LocalVerdict != core.VerdictLocalized.String() {
			res.Degraded++
		}
	}
	return res, nil
}

// distObsOne compares the two observation modes on the mutant f, which
// mapMutants has installed on the worker's oracle runner. It returns nil when
// the suite produces no symptom (nothing to diagnose in either mode).
func distObsOne(w sweepWorker, pm ports.Map, f fault.Fault) (*DistObsRow, error) {
	observed, err := w.oracle.RunSuite(w.suite)
	if err != nil {
		return nil, err
	}

	// Global observation: the classical pipeline.
	ag, err := core.Analyze(w.spec, w.suite, observed, w.opts...)
	if err != nil {
		return nil, err
	}
	if len(ag.Symptoms) == 0 {
		return nil, nil
	}
	gOracle := &compiled.Oracle{R: w.oracle}
	locG, err := core.Localize(ag, gOracle, w.opts...)
	if err != nil {
		return nil, err
	}

	// Distributed observation: same recorded run, projections only.
	popts := ports.WithCoreOptions(w.opts...)
	al, _, err := ports.AnalyzeObserved(w.spec, w.suite, observed, pm, popts)
	if err != nil {
		return nil, err
	}
	lOracle := &compiled.Oracle{R: w.oracle}
	locL, _, err := ports.Localize(al, lOracle, pm, popts)
	if err != nil {
		return nil, err
	}

	row := &DistObsRow{
		Fault:           f.Describe(w.spec),
		GlobalDiagnoses: len(ag.Diagnoses),
		LocalDiagnoses:  len(al.Diagnoses),
		GlobalVerdict:   locG.Verdict.String(),
		LocalVerdict:    locL.Verdict.String(),
		GlobalTests:     gOracle.Tests,
		LocalTests:      lOracle.Tests,
	}
	if locL.Verdict == core.VerdictLocalized {
		sound := locL.Fault.Ref == f.Ref
		if !sound {
			// A differing conviction is sound only when no projection can
			// separate the convicted variant from the true mutant.
			mut, err := w.eng.Variant(&f)
			if err != nil {
				return nil, err
			}
			convicted, err := w.eng.Variant(locL.Fault)
			if err != nil {
				return nil, err
			}
			_, start, _ := mut.RunInputs(nil) // an empty run cannot fail
			_, distinguishable, _ := w.eng.Distinguish(convicted, start, mut, start, nil, true)
			sound = !distinguishable
		}
		if sound {
			row.Recovered = true
		} else {
			row.LocalVerdict = "wrong"
		}
	}
	return row, nil
}
