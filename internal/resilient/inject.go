package resilient

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/trace"
)

// ErrTransient is the error a FaultInjector returns for an injected
// transport failure. It is retryable: RetryOracle treats it like any other
// failed attempt.
var ErrTransient = errors.New("resilient: injected transient error")

// Injection modes, used as the mode attribute of chaos.inject events and the
// mode label of cfsmdiag_chaos_injections_total.
const (
	ModeDrop      = "drop"      // remove one observation from the response
	ModeDuplicate = "duplicate" // repeat one observation in the response
	ModeGarble    = "garble"    // corrupt one observation symbol in place
	ModeTransient = "transient" // fail the execution with ErrTransient
	ModeDelay     = "delay"     // stall the response by Delay
	ModeHang      = "hang"      // never respond (until the context ends)
)

const metricInjections = "cfsmdiag_chaos_injections_total"

// InjectConfig sets the per-execution probability of each fault mode. All
// probabilities are independent draws in [0, 1]; the zero value injects
// nothing. The same Seed always yields the same fault schedule for the same
// query sequence, which is what makes the chaos experiments reproducible.
type InjectConfig struct {
	Drop      float64 // P(drop one observation)
	Duplicate float64 // P(duplicate one observation)
	Garble    float64 // P(corrupt one observation symbol)
	Transient float64 // P(fail with ErrTransient)
	Hang      float64 // P(block until the context is canceled)
	Delay     float64 // P(stall the response by DelayBy)
	// DelayBy is how long a delayed response stalls (default 5ms).
	DelayBy time.Duration
	// Seed fixes the fault schedule.
	Seed int64
	// Registry receives cfsmdiag_chaos_injections_total{mode=...} (nil
	// disables).
	Registry *obs.Registry
	// Tracer receives one chaos.inject event per injected fault (nil
	// disables).
	Tracer *trace.Tracer
}

// FaultInjector perturbs a healthy oracle with seeded observation faults. It
// sits between the RetryOracle and the real system under test:
//
//	system → FaultInjector (chaos) → RetryOracle (hardening) → Step 6
//
// It implements core.ContextOracle so hangs and delays are bounded by the
// caller's context rather than blocking forever. Safe for concurrent use.
type FaultInjector struct {
	inner core.Oracle
	cfg   InjectConfig

	mu       sync.Mutex // guards rng and injected
	rng      *rand.Rand
	injected int

	counters map[string]*obs.Counter
}

var (
	_ core.Oracle        = (*FaultInjector)(nil)
	_ core.ContextOracle = (*FaultInjector)(nil)
)

// NewFaultInjector wraps inner with the fault schedule of cfg.
func NewFaultInjector(inner core.Oracle, cfg InjectConfig) *FaultInjector {
	if cfg.DelayBy <= 0 {
		cfg.DelayBy = 5 * time.Millisecond
	}
	modes := []string{ModeDrop, ModeDuplicate, ModeGarble, ModeTransient, ModeDelay, ModeHang}
	counters := make(map[string]*obs.Counter, len(modes))
	for _, m := range modes {
		counters[m] = cfg.Registry.Counter(metricInjections,
			"Observation faults injected by the chaos layer, by mode.",
			obs.L("mode", m))
	}
	return &FaultInjector{
		inner:    inner,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		counters: counters,
	}
}

// InjectedTotal returns the total number of injected faults across modes.
func (f *FaultInjector) InjectedTotal() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// plan is the fault schedule drawn for one execution. Drawing everything up
// front under one lock keeps the schedule a pure function of the seed and
// the query order even when attempts interleave across goroutines.
type plan struct {
	transient bool
	hang      bool
	delay     bool
	drop      bool
	duplicate bool
	garble    bool
	pos       int // victim index draw, reduced mod len(obs) at apply time
}

func (f *FaultInjector) draw() plan {
	f.mu.Lock()
	defer f.mu.Unlock()
	return plan{
		transient: f.rng.Float64() < f.cfg.Transient,
		hang:      f.rng.Float64() < f.cfg.Hang,
		delay:     f.rng.Float64() < f.cfg.Delay,
		drop:      f.rng.Float64() < f.cfg.Drop,
		duplicate: f.rng.Float64() < f.cfg.Duplicate,
		garble:    f.rng.Float64() < f.cfg.Garble,
		pos:       f.rng.Intn(1 << 16),
	}
}

func (f *FaultInjector) note(mode string, tc cfsm.TestCase, detail ...trace.KV) {
	f.mu.Lock()
	f.injected++
	f.mu.Unlock()
	f.counters[mode].Inc()
	attrs := append([]trace.KV{
		trace.A("mode", mode),
		trace.A("test", tc.Name),
	}, detail...)
	f.cfg.Tracer.Emit(trace.KindChaosInject, attrs...)
}

// Execute implements core.Oracle.
func (f *FaultInjector) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	return f.ExecuteContext(context.Background(), tc)
}

// ExecuteContext implements core.ContextOracle: it executes the wrapped
// oracle and then applies this execution's drawn faults to the response.
func (f *FaultInjector) ExecuteContext(ctx context.Context, tc cfsm.TestCase) ([]cfsm.Observation, error) {
	p := f.draw()
	if p.transient {
		f.note(ModeTransient, tc)
		return nil, ErrTransient
	}
	if p.hang {
		f.note(ModeHang, tc)
		<-ctx.Done()
		return nil, ctx.Err()
	}
	var observed []cfsm.Observation
	var err error
	if co, ok := f.inner.(core.ContextOracle); ok {
		observed, err = co.ExecuteContext(ctx, tc)
	} else {
		observed, err = f.inner.Execute(tc)
	}
	if err != nil {
		return nil, err
	}
	if p.delay {
		f.note(ModeDelay, tc, trace.A("delay", f.cfg.DelayBy.String()))
		if serr := sleepContext(ctx, f.cfg.DelayBy); serr != nil {
			return nil, serr
		}
	}
	if len(observed) == 0 {
		return observed, nil
	}
	// Work on a copy so the wrapped oracle's slice is never mutated.
	out := append([]cfsm.Observation(nil), observed...)
	pos := p.pos % len(out)
	switch {
	case p.drop:
		f.note(ModeDrop, tc, trace.A("index", strconv.Itoa(pos)))
		out = append(out[:pos], out[pos+1:]...)
	case p.duplicate:
		f.note(ModeDuplicate, tc, trace.A("index", strconv.Itoa(pos)))
		out = append(out[:pos+1], out[pos:]...)
	case p.garble:
		was := out[pos]
		out[pos] = garble(was)
		f.note(ModeGarble, tc,
			trace.A("index", strconv.Itoa(pos)),
			trace.A("was", was.String()),
			trace.A("now", out[pos].String()))
	}
	return out, nil
}

// garble corrupts an observation while keeping it well-formed (so a garbled
// sequence that slips through still parses everywhere): a real output decays
// to the null observation, a null observation materializes a spurious output.
func garble(o cfsm.Observation) cfsm.Observation {
	if o.Sym == cfsm.Null {
		return cfsm.Observation{Sym: "z", Port: 0}
	}
	return cfsm.Observation{Sym: cfsm.Null}
}

// Describe summarizes the non-zero injection probabilities, for reports.
func (cfg InjectConfig) Describe() string {
	parts := []struct {
		mode string
		p    float64
	}{
		{ModeDrop, cfg.Drop}, {ModeDuplicate, cfg.Duplicate}, {ModeGarble, cfg.Garble},
		{ModeTransient, cfg.Transient}, {ModeDelay, cfg.Delay}, {ModeHang, cfg.Hang},
	}
	s := ""
	for _, p := range parts {
		if p.p <= 0 {
			continue
		}
		if s != "" {
			s += " "
		}
		s += fmt.Sprintf("%s=%.2f", p.mode, p.p)
	}
	if s == "" {
		return "none"
	}
	return s
}
