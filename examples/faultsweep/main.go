// Faultsweep exhaustively injects every single-transition fault (output,
// transfer, and combined) into the paper's Figure 1 system, diagnoses each
// mutant, and reports how many were detected, correctly localized, or
// inherently undetectable — an empirical check of the paper's claim that the
// algorithm "guarantees the correct diagnosis of any single or double faults
// in at most one of the transitions".
//
// Run with: go run ./examples/faultsweep
package main

import (
	"fmt"
	"log"

	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/paper"
	"cfsmdiag/internal/testgen"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec := paper.MustFigure1()
	suite, uncovered := testgen.Tour(spec, 0)
	if len(uncovered) > 0 {
		return fmt.Errorf("tour left transitions uncovered: %v", uncovered)
	}
	fmt.Printf("system: %d machines, %d transitions; initial suite: %d transition-tour cases\n",
		spec.N(), spec.NumTransitions(), len(suite))

	res, err := experiments.RunSweep(spec, suite, true)
	if err != nil {
		return err
	}

	fmt.Printf("mutants: %d\n", len(res.Reports))
	for o := experiments.OutcomeUndetected; o <= experiments.OutcomeInconsistent; o++ {
		if n := res.Counts[o]; n > 0 {
			fmt.Printf("  %-28s %4d\n", o.String(), n)
		}
	}
	if res.UndetectedEquivalent > 0 {
		fmt.Printf("  (%d of the undetected mutants are provably equivalent to the spec)\n",
			res.UndetectedEquivalent)
	}
	if res.Detected > 0 {
		fmt.Printf("adaptive cost over %d detected mutants: %.2f additional tests, %.2f oracle inputs (suite included) on average\n",
			res.Detected,
			float64(res.TotalAdditionalTests)/float64(res.Detected),
			float64(res.TotalAdditionalInputs)/float64(res.Detected))
	}

	// Show a few interesting undetected mutants, if any.
	shown := 0
	for _, r := range res.Reports {
		if r.Outcome == experiments.OutcomeUndetected && shown < 5 {
			tag := "missed by the tour"
			if r.EquivalentToSpec {
				tag = "equivalent to the spec (undetectable in principle)"
			}
			fmt.Printf("  undetected: %-55s %s\n", r.Fault.Describe(spec), tag)
			shown++
		}
	}
	return nil
}
