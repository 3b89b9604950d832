package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/experiments"
	"cfsmdiag/internal/fault"
	"cfsmdiag/internal/jsonl"
	"cfsmdiag/internal/obs"
)

// Coordinator errors, mapped onto the HTTP envelope by the handler.
var (
	// ErrNotFound: no such sweep (or range index).
	ErrNotFound = errors.New("cluster: not found")
	// ErrNoWork: the sweep has no pending range right now (all leased or
	// done); workers back off and retry.
	ErrNoWork = errors.New("cluster: no pending range")
	// ErrStaleLease: the pushed fencing token is not the range's current
	// one — the lease expired and the range was re-leased. The push is
	// discarded; the current holder's result will be merged instead.
	ErrStaleLease = errors.New("cluster: stale lease token")
	// ErrDuplicate: the range is already done; the verdicts were merged
	// exactly once and this push is discarded.
	ErrDuplicate = errors.New("cluster: range already merged")
)

// Config tunes a Coordinator. The zero value works: 10s leases, ranges of
// 32 mutants, in-memory only, no telemetry.
type Config struct {
	// LeaseTTL is how long a granted range stays fenced to its worker before
	// it returns to the pending pool. <= 0 selects 10s.
	LeaseTTL time.Duration
	// RangeSize is the default shard width in mutant indices; sweep creation
	// may override it per sweep. <= 0 selects 32.
	RangeSize int
	// Dir enables durability: sweep creations and merged ranges append to a
	// JSONL journal replayed on Open, so a coordinator restart loses no
	// merged verdict and re-offers only unfinished ranges. Empty keeps
	// sweeps in memory only.
	Dir string
	// Registry receives cfsmdiag_cluster_* metrics; nil disables.
	Registry *obs.Registry
	// Logger receives operational notes; nil disables.
	Logger *obs.Logger

	// now overrides the clock in tests; nil selects time.Now.
	now func() time.Time
}

// sweepRange is one shard of a sweep's mutant space.
type sweepRange struct {
	lo, hi   int
	state    RangeState
	token    int64     // fencing token of the current (or last) lease
	deadline time.Time // lease expiry; meaningful while leased
	worker   string    // current/last lease holder
	leases   int       // grants including replays
	reports  []experiments.MutantReport
}

// sweep is one distributed mutant sweep.
type sweep struct {
	id        string
	createdAt time.Time
	state     SweepState
	spec      *cfsm.System
	specDoc   json.RawMessage // canonical document handed to workers
	suite     []cfsm.TestCase
	suiteWire []cfsm.CaseJSON
	opts      Options
	rangeSize int
	mutants   int
	ranges    []*sweepRange
	done      int
	nextToken int64
	// fencing statistics, surfaced in the status document
	expirations int64
	stale       int64
	duplicates  int64
	result      *experiments.SweepResult // set when state == SweepDone
}

// Coordinator owns the sweeps, their range pools and the lease clock. All
// methods are safe for concurrent use.
type Coordinator struct {
	cfg Config
	met clusterMetrics

	mu     sync.Mutex
	sweeps map[string]*sweep
	order  []string // creation order for stable listing
	nextID int
	jl     *jsonl.Log // nil for an in-memory coordinator
}

// Open builds a Coordinator and, when cfg.Dir is set, replays the journal so
// previously created sweeps resume with their merged ranges intact.
func Open(cfg Config) (*Coordinator, error) {
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.RangeSize <= 0 {
		cfg.RangeSize = 32
	}
	if cfg.now == nil {
		cfg.now = time.Now
	}
	c := &Coordinator{
		cfg:    cfg,
		met:    newClusterMetrics(cfg.Registry),
		sweeps: make(map[string]*sweep),
		nextID: 1,
	}
	if cfg.Dir != "" {
		jl, records, err := jsonl.Open[journalRecord](journalPath(cfg.Dir))
		if err != nil {
			return nil, fmt.Errorf("cluster: open journal: %w", err)
		}
		c.jl = jl
		if err := c.replay(records); err != nil {
			jl.Close()
			return nil, err
		}
	}
	return c, nil
}

// Close releases the journal handle; in-memory coordinators close instantly.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.jl == nil {
		return nil
	}
	err := c.jl.Close()
	c.jl = nil
	return err
}

// Create registers a sweep over the complete single-transition mutant space
// of spec, sharded into contiguous ranges of rangeSize mutants (<= 0 selects
// the coordinator default). The suite must be non-empty — resolve tours
// before calling in.
func (c *Coordinator) Create(spec *cfsm.System, suite []cfsm.TestCase, opts Options, rangeSize int) (SweepStatus, error) {
	if spec == nil {
		return SweepStatus{}, fmt.Errorf("cluster: nil spec")
	}
	if len(suite) == 0 {
		return SweepStatus{}, fmt.Errorf("cluster: empty suite")
	}
	doc, err := spec.MarshalJSON()
	if err != nil {
		return SweepStatus{}, err
	}
	mutants := len(fault.Enumerate(spec))
	if mutants == 0 {
		return SweepStatus{}, fmt.Errorf("cluster: the spec has no single-transition mutants to sweep")
	}
	if rangeSize <= 0 {
		rangeSize = c.cfg.RangeSize
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	sw := c.buildLocked(c.issueIDLocked(), c.cfg.now(), spec, doc, suite, cfsm.EncodeSuite(suite), opts, rangeSize, mutants)
	if c.jl != nil {
		if err := c.jl.Append(journalRecord{
			Op: opCreate, Sweep: sw.id, At: sw.createdAt,
			Spec: doc, Suite: sw.suiteWire, Options: &sw.opts, RangeSize: rangeSize,
		}); err != nil {
			delete(c.sweeps, sw.id)
			c.order = c.order[:len(c.order)-1]
			return SweepStatus{}, err
		}
	}
	c.met.sweeps.Inc()
	c.met.active.Set(int64(c.activeLocked()))
	c.met.pending.Add(int64(len(sw.ranges)))
	c.cfg.Logger.Info("cluster: sweep created",
		"sweep", sw.id, "mutants", mutants, "ranges", len(sw.ranges), "range_size", rangeSize)
	return c.statusLocked(sw), nil
}

// buildLocked installs a sweep with every range pending.
func (c *Coordinator) buildLocked(id string, at time.Time, spec *cfsm.System, doc json.RawMessage, suite []cfsm.TestCase, suiteWire []cfsm.CaseJSON, opts Options, rangeSize, mutants int) *sweep {
	sw := &sweep{
		id: id, createdAt: at, state: SweepRunning,
		spec: spec, specDoc: doc, suite: suite, suiteWire: suiteWire,
		opts: opts, rangeSize: rangeSize, mutants: mutants,
	}
	for lo := 0; lo < mutants; lo += rangeSize {
		hi := lo + rangeSize
		if hi > mutants {
			hi = mutants
		}
		sw.ranges = append(sw.ranges, &sweepRange{lo: lo, hi: hi, state: RangePending})
	}
	c.sweeps[id] = sw
	c.order = append(c.order, id)
	return sw
}

func (c *Coordinator) issueIDLocked() string {
	id := "s" + strconv.Itoa(c.nextID)
	c.nextID++
	return id
}

// activeLocked counts running sweeps.
func (c *Coordinator) activeLocked() int {
	n := 0
	for _, sw := range c.sweeps {
		if sw.state == SweepRunning {
			n++
		}
	}
	return n
}

// reclaimLocked returns expired leases to the pending pool. Called on every
// lease/report/status entry, so progress needs no background goroutine: the
// next worker poll after an expiry sees the range pending again.
func (c *Coordinator) reclaimLocked(sw *sweep, now time.Time) {
	for _, r := range sw.ranges {
		if r.state == RangeLeased && now.After(r.deadline) {
			r.state = RangePending
			sw.expirations++
			c.met.expired.Inc()
			c.met.pending.Inc()
			c.cfg.Logger.Warn("cluster: lease expired",
				"sweep", sw.id, "range", fmt.Sprintf("[%d,%d)", r.lo, r.hi), "worker", r.worker)
		}
	}
}

// Lease grants the lowest pending range of the sweep to a worker. ErrNoWork
// means nothing is pending right now — the sweep may be done, or every
// remaining range is leased out.
func (c *Coordinator) Lease(sweepID, worker string) (Lease, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return Lease{}, fmt.Errorf("%w: sweep %s", ErrNotFound, sweepID)
	}
	now := c.cfg.now()
	c.reclaimLocked(sw, now)
	for i, r := range sw.ranges {
		if r.state != RangePending {
			continue
		}
		sw.nextToken++
		r.state = RangeLeased
		r.token = sw.nextToken
		r.deadline = now.Add(c.cfg.LeaseTTL)
		r.worker = worker
		r.leases++
		c.met.leases.Inc()
		c.met.pending.Dec()
		return Lease{
			Sweep: sw.id, Range: i, Lo: r.lo, Hi: r.hi,
			Token: r.token, TTLMillis: c.cfg.LeaseTTL.Milliseconds(),
			Spec: sw.specDoc, Suite: sw.suiteWire, Options: sw.opts,
		}, nil
	}
	return Lease{}, ErrNoWork
}

// Report merges one range's verdicts under lease fencing: the push is
// accepted iff the range is not yet done and token is the range's current
// fencing token. A push whose lease expired but whose range was not yet
// re-leased is still current — the work is valid and merging it beats
// redoing it. When the last range merges the sweep completes and the
// aggregate result is fixed.
func (c *Coordinator) Report(sweepID string, rangeIdx int, token int64, reports []experiments.MutantReport) (ReportResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return ReportResponse{}, fmt.Errorf("%w: sweep %s", ErrNotFound, sweepID)
	}
	if rangeIdx < 0 || rangeIdx >= len(sw.ranges) {
		return ReportResponse{}, fmt.Errorf("%w: sweep %s has no range %d", ErrNotFound, sweepID, rangeIdx)
	}
	r := sw.ranges[rangeIdx]
	if r.state == RangeDone {
		sw.duplicates++
		c.met.reports("duplicate").Inc()
		return ReportResponse{}, fmt.Errorf("%w: sweep %s range %d", ErrDuplicate, sweepID, rangeIdx)
	}
	if token != r.token {
		sw.stale++
		c.met.reports("stale").Inc()
		return ReportResponse{}, fmt.Errorf("%w: sweep %s range %d (token %d, current %d)",
			ErrStaleLease, sweepID, rangeIdx, token, r.token)
	}
	if want := r.hi - r.lo; len(reports) != want {
		c.met.reports("invalid").Inc()
		return ReportResponse{}, fmt.Errorf("cluster: sweep %s range %d pushed %d reports, want %d",
			sweepID, rangeIdx, len(reports), want)
	}
	if c.jl != nil {
		if err := c.jl.Append(journalRecord{
			Op: opResult, Sweep: sw.id, Range: rangeIdx, Reports: EncodeReports(reports),
		}); err != nil {
			return ReportResponse{}, err
		}
	}
	c.mergeRangeLocked(sw, r, reports)
	c.met.reports("merged").Inc()
	c.met.mutants.Add(int64(len(reports)))
	resp := ReportResponse{
		Merged: true, DoneRanges: sw.done, Ranges: len(sw.ranges),
		SweepDone: sw.state == SweepDone,
	}
	if resp.SweepDone {
		c.met.active.Set(int64(c.activeLocked()))
		c.cfg.Logger.Info("cluster: sweep complete",
			"sweep", sw.id, "mutants", sw.mutants, "ranges", len(sw.ranges),
			"expirations", sw.expirations, "stale", sw.stale, "duplicates", sw.duplicates)
	}
	return resp, nil
}

// mergeRangeLocked marks a range done and, when it is the last one, fixes
// the deterministic aggregate: ranges are concatenated in index order (==
// fault-enumeration order), so the merged SweepResult is byte-identical to
// the single-process sweep.
func (c *Coordinator) mergeRangeLocked(sw *sweep, r *sweepRange, reports []experiments.MutantReport) {
	if r.state == RangePending {
		// Late push after expiry but before re-lease: the pool count was
		// already incremented on reclaim.
		c.met.pending.Dec()
	}
	r.state = RangeDone
	r.reports = reports
	sw.done++
	if sw.done < len(sw.ranges) {
		return
	}
	var all []experiments.MutantReport
	for _, rr := range sw.ranges {
		all = append(all, rr.reports...)
	}
	res := experiments.MergeReports(sw.spec, sw.suite, all)
	sw.result = &res
	sw.state = SweepDone
}

// Get returns a sweep's status.
func (c *Coordinator) Get(sweepID string) (SweepStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return SweepStatus{}, fmt.Errorf("%w: sweep %s", ErrNotFound, sweepID)
	}
	c.reclaimLocked(sw, c.cfg.now())
	return c.statusLocked(sw), nil
}

// Ranges returns a sweep's per-range statuses in range order.
func (c *Coordinator) Ranges(sweepID string) ([]RangeStatus, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return nil, fmt.Errorf("%w: sweep %s", ErrNotFound, sweepID)
	}
	c.reclaimLocked(sw, c.cfg.now())
	out := make([]RangeStatus, len(sw.ranges))
	for i, r := range sw.ranges {
		out[i] = RangeStatus{
			Range: i, Lo: r.lo, Hi: r.hi, State: r.state,
			Leases: r.leases, Worker: r.worker,
		}
	}
	return out, nil
}

// List returns every sweep's status in stable order: creation time, then id.
// The order never depends on map iteration.
func (c *Coordinator) List() []SweepStatus {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.now()
	out := make([]SweepStatus, 0, len(c.order))
	for _, id := range c.order {
		sw := c.sweeps[id]
		c.reclaimLocked(sw, now)
		out = append(out, c.statusLocked(sw))
	}
	sort.SliceStable(out, func(i, k int) bool {
		if !out[i].CreatedAt.Equal(out[k].CreatedAt) {
			return out[i].CreatedAt.Before(out[k].CreatedAt)
		}
		return idNumber(out[i].ID) < idNumber(out[k].ID)
	})
	return out
}

// Result returns the merged sweep result once every range is done.
func (c *Coordinator) Result(sweepID string) (*experiments.SweepResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[sweepID]
	if !ok || sw.result == nil {
		return nil, false
	}
	return sw.result, true
}

func (c *Coordinator) statusLocked(sw *sweep) SweepStatus {
	st := SweepStatus{
		ID: sw.id, State: sw.state, CreatedAt: sw.createdAt,
		Mutants: sw.mutants, RangeSize: sw.rangeSize, Ranges: len(sw.ranges),
		Expirations: sw.expirations, Stale: sw.stale, Duplicates: sw.duplicates,
		SuiteCases: len(sw.suite),
	}
	for _, r := range sw.ranges {
		switch r.state {
		case RangePending:
			st.Pending++
		case RangeLeased:
			st.Leased++
		case RangeDone:
			st.Done++
		}
	}
	if sw.result != nil {
		sum := sw.result.Summary()
		st.Result = &sum
	}
	return st
}

// idNumber extracts the numeric part of "s17"-style ids for stable sorting.
func idNumber(id string) int {
	n, _ := strconv.Atoi(strings.TrimPrefix(id, "s"))
	return n
}

// Journal operations. Creations record the full sweep inputs; results record
// one merged range. Leases are never journaled — they are volatile by
// design, so a restarted coordinator re-offers every unfinished range.
const (
	opCreate = "create"
	opResult = "result"
)

// journalRecord is one JSONL line of the cluster journal.
type journalRecord struct {
	Op    string    `json:"op"`
	Sweep string    `json:"sweep"`
	At    time.Time `json:"at,omitempty"`
	// create fields
	Spec      json.RawMessage `json:"spec,omitempty"`
	Suite     []cfsm.CaseJSON `json:"suite,omitempty"`
	Options   *Options        `json:"options,omitempty"`
	RangeSize int             `json:"rangeSize,omitempty"`
	// result fields
	Range   int          `json:"range"`
	Reports []ReportJSON `json:"reports,omitempty"`
}

func journalPath(dir string) string { return filepath.Join(dir, "cluster.jsonl") }

// replay rebuilds coordinator state from journal records: creations install
// sweeps with every range pending, results mark ranges done. Leases are
// deliberately volatile — after a restart every unfinished range is pending
// and will simply be re-leased.
func (c *Coordinator) replay(records []journalRecord) error {
	for _, rec := range records {
		switch rec.Op {
		case opCreate:
			if n := idNumber(rec.Sweep); n >= c.nextID {
				c.nextID = n + 1
			}
			spec, err := cfsm.ParseSystem(rec.Spec)
			if err != nil {
				return fmt.Errorf("cluster: journal sweep %s: %w", rec.Sweep, err)
			}
			suite, err := cfsm.DecodeSuite(rec.Suite)
			var dup cfsm.DuplicateCaseError
			if errors.As(err, &dup) {
				// Older journals may hold a suite creation now refuses: start
				// without that sweep; its id stays used, so its results never
				// attach to a later sweep.
				c.cfg.Logger.Warn("cluster: journal sweep not recovered", "sweep", rec.Sweep, "err", err)
				continue
			}
			if err != nil {
				return fmt.Errorf("cluster: journal sweep %s: %w", rec.Sweep, err)
			}
			opts := Options{}
			if rec.Options != nil {
				opts = *rec.Options
			}
			mutants := len(fault.Enumerate(spec))
			c.buildLocked(rec.Sweep, rec.At, spec, rec.Spec, suite, rec.Suite, opts, rec.RangeSize, mutants)
		case opResult:
			sw, ok := c.sweeps[rec.Sweep]
			if !ok {
				continue // tolerate results for unknown sweeps (partial journal)
			}
			if rec.Range < 0 || rec.Range >= len(sw.ranges) {
				continue
			}
			r := sw.ranges[rec.Range]
			if r.state == RangeDone {
				continue // idempotent replay
			}
			c.mergeRangeLocked(sw, r, DecodeReports(rec.Reports))
		}
	}
	recovered := 0
	for _, sw := range c.sweeps {
		if sw.state == SweepRunning {
			recovered++
		}
	}
	if len(c.sweeps) > 0 {
		c.cfg.Logger.Info("cluster: journal replayed",
			"sweeps", len(c.sweeps), "running", recovered)
		c.met.active.Set(int64(c.activeLocked()))
	}
	return nil
}
