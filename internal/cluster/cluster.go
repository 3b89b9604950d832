// Package cluster shards the single-transition mutant sweep across
// processes. The mutant space is the unit of sharding: the deterministic
// fault-enumeration order (fault.Enumerate / experiments.RunSweepRange)
// is partitioned into contiguous index ranges, a coordinator hands ranges
// to workers under expiring leases with fencing tokens, and the pushed
// per-range verdict sets are merged in range order — so the distributed
// result is byte-identical to a single-process sweep no matter how many
// workers ran, died, or retried.
//
// The protocol is four HTTP calls (mounted by internal/server under
// /v1/cluster/sweeps, or by Coordinator.Handler directly):
//
//	POST /v1/cluster/sweeps                        create a sweep
//	GET  /v1/cluster/sweeps                        list sweeps (stable order)
//	GET  /v1/cluster/sweeps/{id}                   status (+ result when done)
//	POST /v1/cluster/sweeps/{id}/lease             pull the next range lease
//	POST /v1/cluster/sweeps/{id}/ranges/{n}/result push a range's verdicts
//
// Exactly-once semantics: every lease carries a fencing token; a range's
// result is merged only when the pushed token matches the range's current
// token and the range is not already done. A worker that dies mid-range
// simply lets its lease expire — the range returns to the pending pool and
// is re-leased with a fresh token, so the dead worker's late push (if the
// process was merely slow, not gone) is fenced off as stale. Zero verdicts
// are lost, zero are merged twice.
package cluster

import (
	"encoding/json"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
)

// Options are the sweep-level execution options carried from creation to
// every worker lease.
type Options struct {
	// CheckEquivalence enables the expensive observational-equivalence
	// classification on undetected and wrongly-localized mutants, exactly as
	// in experiments.SweepOptions.
	CheckEquivalence bool `json:"checkEquivalence,omitempty"`
}

// RangeState is the lifecycle of one shard of the mutant space.
type RangeState string

// Range lifecycle states.
const (
	RangePending RangeState = "pending" // waiting for a worker (or reclaimed)
	RangeLeased  RangeState = "leased"  // held under an unexpired lease
	RangeDone    RangeState = "done"    // verdicts merged exactly once
)

// SweepState is the lifecycle of a distributed sweep.
type SweepState string

// Sweep lifecycle states.
const (
	SweepRunning SweepState = "running"
	SweepDone    SweepState = "done"
)

// --- wire formats ---

// FaultJSON is the wire form of a fault.Fault. Dest carries no omitempty:
// machine index 0 is a valid faulty destination for the addressing
// extension, so the zero value must survive the round trip.
type FaultJSON struct {
	Machine    int    `json:"machine"`
	Transition string `json:"transition"`
	Kind       int    `json:"kind"`
	Output     string `json:"output,omitempty"`
	To         string `json:"to,omitempty"`
	Dest       int    `json:"dest"`
}

// ReportJSON is the wire form of one mutant's verdict — a lossless encoding
// of experiments.MutantReport, so the coordinator's merge reproduces the
// local sweep byte for byte.
type ReportJSON struct {
	Fault            FaultJSON `json:"fault"`
	Outcome          int       `json:"outcome"`
	AdditionalTests  int       `json:"additionalTests,omitempty"`
	AdditionalInputs int       `json:"additionalInputs,omitempty"`
	ExactFault       bool      `json:"exactFault,omitempty"`
	EquivalentToSpec bool      `json:"equivalentToSpec,omitempty"`
}

// EncodeReports converts mutant reports to wire form.
func EncodeReports(reports []experiments.MutantReport) []ReportJSON {
	out := make([]ReportJSON, len(reports))
	for i, r := range reports {
		out[i] = ReportJSON{
			Fault: FaultJSON{
				Machine:    r.Fault.Ref.Machine,
				Transition: r.Fault.Ref.Name,
				Kind:       int(r.Fault.Kind),
				Output:     string(r.Fault.Output),
				To:         string(r.Fault.To),
				Dest:       r.Fault.Dest,
			},
			Outcome:          int(r.Outcome),
			AdditionalTests:  r.AdditionalTests,
			AdditionalInputs: r.AdditionalIn,
			ExactFault:       r.ExactFault,
			EquivalentToSpec: r.EquivalentToSpec,
		}
	}
	return out
}

// DecodeReports converts wire-form reports back to mutant reports.
func DecodeReports(reports []ReportJSON) []experiments.MutantReport {
	out := make([]experiments.MutantReport, len(reports))
	for i, r := range reports {
		out[i] = experiments.MutantReport{
			Fault: fault.Fault{
				Ref:    cfsm.Ref{Machine: r.Fault.Machine, Name: r.Fault.Transition},
				Kind:   fault.Kind(r.Fault.Kind),
				Output: cfsm.Symbol(r.Fault.Output),
				To:     cfsm.State(r.Fault.To),
				Dest:   r.Fault.Dest,
			},
			Outcome:          experiments.MutantOutcome(r.Outcome),
			AdditionalTests:  r.AdditionalTests,
			AdditionalIn:     r.AdditionalInputs,
			ExactFault:       r.ExactFault,
			EquivalentToSpec: r.EquivalentToSpec,
		}
	}
	return out
}

// CreateRequest is the wire form of sweep creation. Spec may be replaced by
// SpecRef (a content hash of a registered model) when the coordinator runs
// inside the full server; the standalone handler resolves inline documents
// only.
type CreateRequest struct {
	Spec    cfsm.SystemJSON `json:"spec"`
	SpecRef string          `json:"specRef,omitempty"`
	// Suite is the initial test suite; omitted selects the generated
	// transition tour of the spec.
	Suite []cfsm.CaseJSON `json:"suite,omitempty"`
	// RangeSize is the number of consecutive mutant indices per shard;
	// <= 0 selects the coordinator's default.
	RangeSize        int  `json:"rangeSize,omitempty"`
	CheckEquivalence bool `json:"checkEquivalence,omitempty"`
}

// LeaseRequest is the wire form of a range pull.
type LeaseRequest struct {
	// Worker names the puller for status/metrics; empty is anonymous.
	Worker string `json:"worker,omitempty"`
}

// Lease is a granted range: the work (spec, suite, bounds), the fencing
// token that must accompany the result push, and the deadline after which
// the range may be re-leased to someone else.
type Lease struct {
	Sweep     string          `json:"sweep"`
	Range     int             `json:"range"` // range index within the sweep
	Lo        int             `json:"lo"`    // first fault-enumeration index
	Hi        int             `json:"hi"`    // one past the last index
	Token     int64           `json:"token"` // fencing token
	TTLMillis int64           `json:"ttlMillis"`
	Spec      json.RawMessage `json:"spec"`
	Suite     []cfsm.CaseJSON `json:"suite"`
	Options   Options         `json:"options"`
}

// ReportRequest is the wire form of a range's result push.
type ReportRequest struct {
	Token   int64        `json:"token"`
	Worker  string       `json:"worker,omitempty"`
	Reports []ReportJSON `json:"reports"`
}

// ReportResponse acknowledges a merged range.
type ReportResponse struct {
	Merged     bool `json:"merged"`
	DoneRanges int  `json:"doneRanges"`
	Ranges     int  `json:"ranges"`
	SweepDone  bool `json:"sweepDone"`
}

// RangeStatus is one shard's public status.
type RangeStatus struct {
	Range  int        `json:"range"`
	Lo     int        `json:"lo"`
	Hi     int        `json:"hi"`
	State  RangeState `json:"state"`
	Leases int        `json:"leases,omitempty"` // lease grants incl. replays
	Worker string     `json:"worker,omitempty"` // current/last lease holder
}

// SweepStatus is a sweep's public status document.
type SweepStatus struct {
	ID        string     `json:"id"`
	State     SweepState `json:"state"`
	CreatedAt time.Time  `json:"createdAt"`
	Mutants   int        `json:"mutants"`
	RangeSize int        `json:"rangeSize"`
	Ranges    int        `json:"ranges"`
	Pending   int        `json:"pendingRanges"`
	Leased    int        `json:"leasedRanges"`
	Done      int        `json:"doneRanges"`
	// Expirations counts leases that timed out and sent their range back to
	// the pending pool; Stale and Duplicates count fenced-off result pushes.
	Expirations int64 `json:"leaseExpirations,omitempty"`
	Stale       int64 `json:"staleReports,omitempty"`
	Duplicates  int64 `json:"duplicateReports,omitempty"`
	SuiteCases  int   `json:"suiteCases"`
	// Result carries the merged outcome once every range is done.
	Result *experiments.Summary `json:"result,omitempty"`
}
