package resilient

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"cfsmdiag/internal/cfsm"
	"cfsmdiag/internal/core"
	"cfsmdiag/internal/obs"
	"cfsmdiag/internal/trace"
)

// scriptedOracle answers by calling fn with a 1-based call number, under a
// lock so concurrent attempts keep the numbering exact.
type scriptedOracle struct {
	mu    sync.Mutex
	calls int
	fn    func(call int, tc cfsm.TestCase) ([]cfsm.Observation, error)
}

func (o *scriptedOracle) Execute(tc cfsm.TestCase) ([]cfsm.Observation, error) {
	o.mu.Lock()
	o.calls++
	n := o.calls
	o.mu.Unlock()
	return o.fn(n, tc)
}

func healthyObs(tc cfsm.TestCase) []cfsm.Observation {
	out := make([]cfsm.Observation, len(tc.Inputs))
	for i := range out {
		out[i] = cfsm.Observation{Sym: "ok", Port: 0}
	}
	return out
}

var testCase = cfsm.TestCase{Name: "T1", Inputs: []cfsm.Input{
	cfsm.Reset(), {Port: 0, Sym: "a"}, {Port: 1, Sym: "b"},
}}

// noSleep replaces the backoff sleep so retry tests run instantly.
func noSleep(ctx context.Context, d time.Duration) error { return ctx.Err() }

func TestRetryOraclePassThrough(t *testing.T) {
	inner := &scriptedOracle{fn: func(_ int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		return healthyObs(tc), nil
	}}
	o := NewRetryOracle(inner, RetryConfig{})
	got, err := o.Execute(testCase)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !cfsm.ObsEqual(got, healthyObs(testCase)) {
		t.Errorf("observations = %v", got)
	}
	if st := o.Stats(); st.Queries != 1 || st.Attempts != 1 || st.Retries != 0 {
		t.Errorf("stats = %+v, want 1 query, 1 attempt, 0 retries", st)
	}
}

func TestRetryOracleRetriesTransientErrors(t *testing.T) {
	inner := &scriptedOracle{fn: func(call int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		if call <= 2 {
			return nil, ErrTransient
		}
		return healthyObs(tc), nil
	}}
	reg := obs.New()
	o := NewRetryOracle(inner, RetryConfig{Retries: 3, Registry: reg, Sleep: noSleep})
	got, err := o.Execute(testCase)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !cfsm.ObsEqual(got, healthyObs(testCase)) {
		t.Errorf("observations = %v", got)
	}
	st := o.Stats()
	if st.Attempts != 3 || st.Retries != 2 || st.Errors != 2 {
		t.Errorf("stats = %+v, want 3 attempts, 2 retries, 2 errors", st)
	}
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	if !strings.Contains(b.String(), "cfsmdiag_resilient_retries_total 2") {
		t.Errorf("exposition missing retry count:\n%s", b.String())
	}
}

func TestRetryOracleRejectsMalformedResponses(t *testing.T) {
	// The inner oracle always drops the last observation; no retry budget can
	// fix it, so the query must fail as unreliable, never return a sequence
	// that cannot be aligned with the inputs.
	inner := &scriptedOracle{fn: func(_ int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		return healthyObs(tc)[:len(tc.Inputs)-1], nil
	}}
	o := NewRetryOracle(inner, RetryConfig{Retries: 2, Sleep: noSleep})
	_, err := o.Execute(testCase)
	if !errors.Is(err, core.ErrUnreliableObservation) {
		t.Fatalf("err = %v, want ErrUnreliableObservation", err)
	}
	if st := o.Stats(); st.Malformed != 3 || st.Unreliable != 1 {
		t.Errorf("stats = %+v, want 3 malformed, 1 unreliable", st)
	}
}

func TestRetryOracleMajorityVote(t *testing.T) {
	// Every third execution garbles the middle observation; with three votes
	// the two clean copies outvote it.
	inner := &scriptedOracle{fn: func(call int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		out := healthyObs(tc)
		if call%3 == 0 {
			out[1] = cfsm.Observation{Sym: "garbled", Port: 1}
		}
		return out, nil
	}}
	tr := trace.New()
	o := NewRetryOracle(inner, RetryConfig{Votes: 3, Sleep: noSleep, Tracer: tr})
	got, err := o.Execute(testCase)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !cfsm.ObsEqual(got, healthyObs(testCase)) {
		t.Errorf("vote elected %v, want the clean sequence", got)
	}
	if st := o.Stats(); st.Disagreements != 1 {
		t.Errorf("stats = %+v, want 1 disagreement", st)
	}
	if n := trace.CountKind(tr.Events(), trace.KindOracleVote, ""); n != 1 {
		t.Errorf("oracle.vote events = %d, want 1", n)
	}
}

func TestRetryOracleNoMajorityIsUnreliable(t *testing.T) {
	// Every execution answers differently: no strict majority can form.
	inner := &scriptedOracle{fn: func(call int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		out := healthyObs(tc)
		out[0] = cfsm.Observation{Sym: cfsm.Symbol(fmt.Sprintf("v%d", call)), Port: 0}
		return out, nil
	}}
	tr := trace.New()
	o := NewRetryOracle(inner, RetryConfig{Votes: 3, Sleep: noSleep, Tracer: tr})
	_, err := o.Execute(testCase)
	if !errors.Is(err, core.ErrUnreliableObservation) {
		t.Fatalf("err = %v, want ErrUnreliableObservation", err)
	}
	if n := trace.CountKind(tr.Events(), trace.KindOracleUnreliable, ""); n != 1 {
		t.Errorf("oracle.unreliable events = %d, want 1", n)
	}
}

func TestRetryOracleTimeoutOnHungOracle(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	inner := &scriptedOracle{fn: func(_ int, _ cfsm.TestCase) ([]cfsm.Observation, error) {
		<-block
		return nil, errors.New("unblocked")
	}}
	tr := trace.New()
	o := NewRetryOracle(inner, RetryConfig{
		Timeout: 5 * time.Millisecond, Retries: 1, Sleep: noSleep, Tracer: tr,
	})
	start := time.Now()
	_, err := o.Execute(testCase)
	if !errors.Is(err, core.ErrUnreliableObservation) {
		t.Fatalf("err = %v, want ErrUnreliableObservation", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("hung oracle stalled the retry loop for %v", elapsed)
	}
	if st := o.Stats(); st.Timeouts != 2 {
		t.Errorf("stats = %+v, want 2 timeouts", st)
	}
	if n := trace.CountKind(tr.Events(), trace.KindOracleTimeout, ""); n != 2 {
		t.Errorf("oracle.timeout events = %d, want 2", n)
	}
}

func TestRetryOraclePropagatesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	inner := &scriptedOracle{fn: func(call int, _ cfsm.TestCase) ([]cfsm.Observation, error) {
		if call == 1 {
			cancel() // the caller gives up while the first attempt is in flight
		}
		return nil, ErrTransient
	}}
	o := NewRetryOracle(inner, RetryConfig{Retries: 10, Sleep: noSleep})
	_, err := o.ExecuteContext(ctx, testCase)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, core.ErrUnreliableObservation) {
		t.Errorf("cancellation must not be reported as an unreliable observation")
	}
	if st := o.Stats(); st.Attempts != 1 {
		t.Errorf("stats = %+v, want exactly 1 attempt after cancellation", st)
	}
}

func TestRetryOracleBackoffDeterministic(t *testing.T) {
	run := func() []time.Duration {
		var delays []time.Duration
		inner := &scriptedOracle{fn: func(_ int, _ cfsm.TestCase) ([]cfsm.Observation, error) {
			return nil, ErrTransient
		}}
		o := NewRetryOracle(inner, RetryConfig{
			Retries: 5, Seed: 42,
			Backoff: time.Millisecond, MaxBackoff: 16 * time.Millisecond,
			Sleep: func(ctx context.Context, d time.Duration) error {
				delays = append(delays, d)
				return nil
			},
		})
		o.Execute(testCase)
		return delays
	}
	first, second := run(), run()
	if len(first) != 5 {
		t.Fatalf("delays = %v, want 5 backoffs", first)
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("seeded jitter not deterministic: %v vs %v", first, second)
		}
		base := time.Millisecond << uint(min(i, 4))
		if base > 16*time.Millisecond {
			base = 16 * time.Millisecond
		}
		if first[i] < base || first[i] > base+base/2 {
			t.Errorf("delay %d = %v outside [%v, %v]", i, first[i], base, base+base/2)
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestFaultInjectorModes(t *testing.T) {
	healthy := &scriptedOracle{fn: func(_ int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
		return healthyObs(tc), nil
	}}
	t.Run("drop", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Drop: 1})
		got, err := f.Execute(testCase)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(got) != len(testCase.Inputs)-1 {
			t.Errorf("len = %d, want one observation dropped", len(got))
		}
		if f.InjectedTotal() != 1 {
			t.Errorf("InjectedTotal() = %d, want the one drop", f.InjectedTotal())
		}
	})
	t.Run("duplicate", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Duplicate: 1})
		got, err := f.Execute(testCase)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(got) != len(testCase.Inputs)+1 {
			t.Errorf("len = %d, want one observation duplicated", len(got))
		}
	})
	t.Run("garble", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Garble: 1})
		got, err := f.Execute(testCase)
		if err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if len(got) != len(testCase.Inputs) {
			t.Fatalf("len = %d, garbling must preserve length", len(got))
		}
		if cfsm.ObsEqual(got, healthyObs(testCase)) {
			t.Errorf("observations unchanged, want one garbled")
		}
	})
	t.Run("transient", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Transient: 1})
		if _, err := f.Execute(testCase); !errors.Is(err, ErrTransient) {
			t.Errorf("err = %v, want ErrTransient", err)
		}
	})
	t.Run("hang", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Hang: 1})
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Millisecond)
		defer cancel()
		if _, err := f.ExecuteContext(ctx, testCase); !errors.Is(err, context.DeadlineExceeded) {
			t.Errorf("err = %v, want DeadlineExceeded", err)
		}
	})
	t.Run("delay", func(t *testing.T) {
		f := NewFaultInjector(healthy, InjectConfig{Delay: 1, DelayBy: time.Millisecond})
		start := time.Now()
		if _, err := f.Execute(testCase); err != nil {
			t.Fatalf("Execute: %v", err)
		}
		if time.Since(start) < time.Millisecond {
			t.Errorf("delayed response returned too fast")
		}
	})
}

func TestFaultInjectorDoesNotMutateInnerSlice(t *testing.T) {
	fixed := healthyObs(testCase)
	inner := &scriptedOracle{fn: func(_ int, _ cfsm.TestCase) ([]cfsm.Observation, error) {
		return fixed, nil
	}}
	f := NewFaultInjector(inner, InjectConfig{Garble: 1})
	if _, err := f.Execute(testCase); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if !cfsm.ObsEqual(fixed, healthyObs(testCase)) {
		t.Errorf("injector mutated the wrapped oracle's slice: %v", fixed)
	}
}

func TestFaultInjectorDeterministicSchedule(t *testing.T) {
	run := func() []string {
		tr := trace.New()
		inner := &scriptedOracle{fn: func(_ int, tc cfsm.TestCase) ([]cfsm.Observation, error) {
			return healthyObs(tc), nil
		}}
		f := NewFaultInjector(inner, InjectConfig{
			Drop: 0.3, Garble: 0.3, Transient: 0.2, Seed: 7, Tracer: tr,
		})
		for i := 0; i < 50; i++ {
			f.Execute(testCase)
		}
		var modes []string
		for _, e := range tr.Events() {
			if e.Kind == trace.KindChaosInject {
				modes = append(modes, e.Attrs["mode"]+"@"+e.Attrs["index"])
			}
		}
		return modes
	}
	first, second := run(), run()
	if len(first) == 0 {
		t.Fatal("no faults injected at these probabilities")
	}
	if strings.Join(first, " ") != strings.Join(second, " ") {
		t.Errorf("fault schedule not reproducible:\n%v\n%v", first, second)
	}
}

func TestInjectConfigDescribe(t *testing.T) {
	if got := (InjectConfig{}).Describe(); got != "none" {
		t.Errorf("Describe() = %q, want none", got)
	}
	got := (InjectConfig{Drop: 0.2, Garble: 0.1}).Describe()
	if got != "drop=0.20 garble=0.10" {
		t.Errorf("Describe() = %q", got)
	}
}

func TestRegisterMetricsPreRegisters(t *testing.T) {
	reg := obs.New()
	RegisterMetrics(reg)
	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	for _, name := range []string{metricAttempts, metricRetries, metricTimeouts, metricUnreliable} {
		if !strings.Contains(b.String(), name) {
			t.Errorf("exposition missing pre-registered family %s", name)
		}
	}
}
