// Package obs is the observability layer of the diagnosis pipeline: a
// dependency-free metrics registry (atomic counters, gauges and fixed-bucket
// histograms) with a Prometheus text-format exposition endpoint, plus a small
// structured-logging facade over log/slog.
//
// The package is built around two rules that let instrumentation be threaded
// through hot paths unconditionally:
//
//   - Everything is nil-safe. Every method on a nil *Registry, *Counter,
//     *Gauge, *Histogram or *Logger is a no-op, so "observability disabled"
//     is spelled by passing nil — no branches, no interfaces, no build tags.
//     A nil Counter's Inc compiles to a pointer test and a return.
//
//   - Handles are cheap to use. Counter.Inc and Histogram.Observe are single
//     atomic operations on pre-resolved handles; registry lookups happen at
//     wiring time, not on the hot path.
//
// Metric names follow the Prometheus conventions with the cfsmdiag_ prefix,
// e.g. cfsmdiag_oracle_queries_total. The registry maps one name to one
// family (a TYPE plus any number of labeled series); requesting an existing
// name with the same label set returns the existing handle, so independent
// subsystems can share families safely.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name/value pair attached to a metric series.
type Label struct {
	Name  string
	Value string
}

// L is shorthand for constructing a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// metricKind discriminates the family types.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return "untyped"
	}
}

// family is one named metric family: a kind, a help string and its series.
type family struct {
	name string
	help string
	kind metricKind

	mu     sync.Mutex
	series map[string]any // canonical label string -> *Counter/*Gauge/*Histogram
	// buckets fixes the bucket layout for histogram families; every series
	// of the family shares it.
	buckets []float64
}

// Registry holds metric families. The zero value is not usable; construct
// with New. A nil *Registry is the no-op registry: every constructor returns
// nil and every nil handle discards updates.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
}

// New returns an empty, enabled registry.
func New() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// family returns (creating if needed) the named family, enforcing kind
// consistency. Re-registering a name with a different kind panics: that is a
// wiring bug, never a data-dependent condition.
func (r *Registry) family(name, help string, kind metricKind, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, series: make(map[string]any), buckets: buckets}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", name, kind, f.kind))
	}
	return f
}

// canonical serializes a label set deterministically ({} for none).
func canonical(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Name < ls[j].Name })
	var b strings.Builder
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteByte('=')
		b.WriteByte('"')
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// Counter returns the counter series of the named family with the given
// labels, creating family and series as needed. On a nil registry it returns
// nil (a no-op counter).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindCounter, nil)
	key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.series[key]; ok {
		return c.(*Counter)
	}
	c := &Counter{}
	f.series[key] = c
	return c
}

// Gauge returns the gauge series of the named family with the given labels.
// On a nil registry it returns nil (a no-op gauge).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	f := r.family(name, help, kindGauge, nil)
	key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if g, ok := f.series[key]; ok {
		return g.(*Gauge)
	}
	g := &Gauge{}
	f.series[key] = g
	return g
}

// Histogram returns the histogram series of the named family with the given
// labels. The first registration of a family fixes its bucket upper bounds
// (nil selects DefaultLatencyBuckets); later calls reuse them. On a nil
// registry it returns nil (a no-op histogram).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	if len(buckets) == 0 {
		buckets = DefaultLatencyBuckets
	}
	bs := append([]float64(nil), buckets...)
	sort.Float64s(bs)
	f := r.family(name, help, kindHistogram, bs)
	key := canonical(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	if h, ok := f.series[key]; ok {
		return h.(*Histogram)
	}
	h := newHistogram(f.buckets)
	f.series[key] = h
	return h
}

// Bucket layouts for the common quantity kinds.
var (
	// DefaultLatencyBuckets suit request and sweep latencies, in seconds.
	DefaultLatencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
	// DefaultSizeBuckets suit small cardinalities: candidate-set sizes,
	// refinement rounds, additional-test counts.
	DefaultSizeBuckets = []float64{0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 100, 250, 1000}
	// HighResLatencyBuckets is the log-spaced layout for latency reports that
	// quote tail quantiles (p95/p99): geometric from 50µs to ~84s with ratio
	// 1.5, keeping interpolation error per bucket under ±25% of the value —
	// tight enough that a p99 regression gate on the interpolated quantile is
	// meaningful. Use it for load-test recorders, not for the default
	// exposition families (it is ~3x the series size of the default layout).
	HighResLatencyBuckets = highResLatencyBuckets()
)

// highResLatencyBuckets builds the geometric ladder once at init.
func highResLatencyBuckets() []float64 {
	var bs []float64
	for v := 50e-6; v < 100; v *= 1.5 {
		bs = append(bs, v)
	}
	return bs
}

// Counter is a monotonically increasing metric. The nil counter discards
// updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n; negative deltas are ignored (counters are monotone). The sum
// saturates at math.MaxInt64 instead of wrapping negative.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	for {
		old := c.v.Load()
		next := old + n
		if next < old {
			next = math.MaxInt64
		}
		if c.v.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. The nil gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the value.
func (g *Gauge) Set(n int64) {
	if g != nil {
		g.v.Store(n)
	}
}

// Add adds n (which may be negative).
func (g *Gauge) Add(n int64) {
	if g != nil {
		g.v.Add(n)
	}
}

// Inc adds one.
func (g *Gauge) Inc() { g.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.Add(-1) }

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Histogram counts observations into fixed buckets. The nil histogram
// discards updates.
type Histogram struct {
	upper  []float64       // sorted upper bounds
	counts []atomic.Uint64 // len(upper)+1; last is +Inf
	count  atomic.Uint64
	sum    atomic.Uint64 // float64 bits, updated by CAS
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{upper: upper, counts: make([]atomic.Uint64, len(upper)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	idx := len(h.upper)
	for i, ub := range h.upper {
		if v <= ub {
			idx = i
			break
		}
	}
	h.counts[idx].Add(1)
	h.count.Add(1)
	for {
		old := h.sum.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, next) {
			return
		}
	}
}

// ObserveInt records an integer quantity (candidate counts, rounds, sizes).
func (h *Histogram) ObserveInt(n int) { h.Observe(float64(n)) }

// Quantile returns the bucket-interpolated q-quantile (q in [0,1]) of the
// observed distribution: it locates the bucket holding the q-th ranked
// observation and interpolates linearly between the bucket's bounds,
// assuming observations are spread uniformly inside it. The first bucket
// interpolates from zero (the layouts are latency/size ladders, so values
// are non-negative); ranks landing in the +Inf overflow bucket are reported
// as the highest finite bound — the recorder cannot know how far past it
// the tail reaches, so it deliberately under- rather than over-states.
// Returns 0 when the histogram is nil or empty; q is clamped to [0,1].
//
// Reads are atomic per bucket but not mutually consistent with concurrent
// Observe calls; with the monotone counters the error is at most the
// handful of in-flight observations, which is fine for the report/gate use
// this exists for.
func (h *Histogram) Quantile(q float64) float64 {
	if h == nil {
		return 0
	}
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// The q-th ranked observation, 1-based; q=0 selects the first.
	rank := uint64(math.Ceil(q * float64(total)))
	if rank == 0 {
		rank = 1
	}
	var cum uint64
	for i := range h.counts {
		n := h.counts[i].Load()
		if n == 0 {
			continue
		}
		if cum+n < rank {
			cum += n
			continue
		}
		if i == len(h.upper) {
			// Overflow bucket: no finite upper bound to interpolate toward.
			if len(h.upper) == 0 {
				return 0
			}
			return h.upper[len(h.upper)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = h.upper[i-1]
		}
		frac := float64(rank-cum) / float64(n)
		return lo + (h.upper[i]-lo)*frac
	}
	// Unreachable with a consistent snapshot; racing observers can make the
	// per-bucket sums fall short of count, in which case the tail bound is
	// the honest answer.
	if len(h.upper) == 0 {
		return 0
	}
	return h.upper[len(h.upper)-1]
}

// BucketSnapshot is one bucket of a histogram snapshot: the inclusive upper
// bound and the number of observations that landed in the bucket (not
// cumulative). The overflow bucket carries UpperBound = +Inf.
type BucketSnapshot struct {
	UpperBound float64
	Count      uint64
}

// Buckets returns a point-in-time snapshot of the per-bucket counts,
// overflow bucket last. Like Quantile, the snapshot is atomic per bucket but
// not mutually consistent with concurrent Observe calls. Returns nil on the
// nil histogram.
func (h *Histogram) Buckets() []BucketSnapshot {
	if h == nil {
		return nil
	}
	out := make([]BucketSnapshot, len(h.counts))
	for i := range h.counts {
		ub := math.Inf(1)
		if i < len(h.upper) {
			ub = h.upper[i]
		}
		out[i] = BucketSnapshot{UpperBound: ub, Count: h.counts[i].Load()}
	}
	return out
}

// Count returns the number of observations (0 on nil).
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observed values (0 on nil).
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sum.Load())
}
