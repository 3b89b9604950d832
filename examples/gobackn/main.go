// Gobackn diagnoses a go-back-N sliding-window protocol (window 2, sequence
// numbers modulo 4) with the Step 6 narration switched on: the localization
// is traced and its events rendered as each candidate under test, each
// adaptively generated test with its observation, and each clearing or
// conviction — the paper's Figure 2 construction, step by step.
//
// The injected bug is a classic one: on a cumulative acknowledgment the
// sender fails to slide its window (a transfer fault in an ack transition).
//
// Run with: go run ./examples/gobackn
package main

import (
	"fmt"
	"log"
	"os"

	"cfsmdiag"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/protocols"
	"cfsmdiag/internal/trace"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	spec := protocols.MustGoBackN()
	fmt.Printf("go-back-N: %d sender states, %d receiver states, %d transitions\n",
		len(spec.Machine(protocols.Sender).States()),
		len(spec.Machine(protocols.Receiver).States()),
		spec.NumTransitions())

	// Find the ack transition out of b0n2 on k2 and break its window slide.
	var ref cfsmdiag.Ref
	for _, r := range spec.Refs() {
		tr, _ := spec.Transition(r)
		if tr.From == "b0n2" && tr.Input == "k2" {
			ref = r
			break
		}
	}
	bug := cfsmdiag.Fault{Ref: ref, Kind: cfsmdiag.KindTransfer, To: "b0n2"}
	iut, err := cfsmdiag.InjectFault(spec, bug)
	if err != nil {
		return err
	}
	fmt.Printf("injected: %s\n\n", bug.Describe(spec))

	suite := protocols.GoBackNSuite()
	oracle := &cfsmdiag.SystemOracle{Sys: iut}

	// Run Steps 1–5, then localize with the narration on.
	observed := make([][]cfsmdiag.Observation, len(suite))
	for i, tc := range suite {
		if observed[i], err = oracle.Execute(tc); err != nil {
			return err
		}
	}
	analysis, err := cfsmdiag.Analyze(spec, suite, observed)
	if err != nil {
		return err
	}
	fmt.Print(analysis.Report())
	fmt.Println("\nStep 6, narrated:")
	tr := trace.New()
	result, err := cfsmdiag.LocalizeWith(analysis, oracle, core.WithTrace(tr))
	if err != nil {
		return err
	}
	if err := trace.WriteNarration(os.Stdout, tr.Events()); err != nil {
		return err
	}
	fmt.Println()
	fmt.Print(result.Report())
	if result.Verdict != cfsmdiag.VerdictLocalized {
		return fmt.Errorf("expected localization, got %v", result.Verdict)
	}
	fmt.Printf("\n>>> %s\n", result.Fault.Describe(spec))
	return nil
}
