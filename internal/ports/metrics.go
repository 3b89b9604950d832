package ports

import (
	"math"

	"cfsmdiag/internal/obs"
)

// Metric families of the distributed-observation layer, following the core
// pipeline's naming scheme (core/metrics.go).
const (
	metricInterleavings = "cfsmdiag_ports_interleavings_explored_total"
	metricAmbiguous     = "cfsmdiag_ports_ambiguous_symptoms_total"
	metricLocallyUndist = "cfsmdiag_ports_locally_undistinguishable_candidates_total"
)

// metrics bundles the layer's pre-resolved instrument handles; every field is
// a nil-safe obs handle, so the zero value (observability disabled) costs a
// pointer test per site.
type metrics struct {
	interleavings *obs.Counter
	ambiguous     *obs.Counter
	locallyUndist *obs.Counter
}

func newMetrics(r *obs.Registry) metrics {
	if r == nil {
		return metrics{}
	}
	return metrics{
		interleavings: r.Counter(metricInterleavings, "Consistent interleavings accounted for across matched test cases (saturating per case at ports.MaxInterleavings)."),
		ambiguous:     r.Counter(metricAmbiguous, "Symptomatic test cases whose projections admit more than one consistent interleaving."),
		locallyUndist: r.Counter(metricLocallyUndist, "Candidate transitions left unresolved because surviving hypotheses differ only in globally visible (locally silent) behaviour."),
	}
}

// RegisterMetrics pre-registers the distributed-observation metric families
// so an exposition endpoint lists them before the first projected analysis
// runs. Safe to call more than once and a no-op on nil.
func RegisterMetrics(r *obs.Registry) {
	if r == nil {
		return
	}
	newMetrics(r)
}

// addSaturating adds an interleaving count to a counter, clamping the uint64
// count to the int64 range; the counter's running sum saturates in turn
// (obs.Counter.Add), so saturated cases cannot wrap it negative.
func addSaturating(c *obs.Counter, n uint64) {
	if n > math.MaxInt64 {
		n = math.MaxInt64
	}
	c.Add(int64(n))
}

// satAdd adds two saturating interleaving counts.
func satAdd(a, b uint64) uint64 {
	if a > MaxInterleavings-b {
		return MaxInterleavings
	}
	return a + b
}
