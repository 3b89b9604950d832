package obs

import (
	"bytes"
	"log/slog"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeSemantics(t *testing.T) {
	r := New()
	c := r.Counter("cfsmdiag_test_total", "a counter")
	c.Inc()
	c.Add(4)
	c.Add(-7) // ignored: counters are monotone
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("cfsmdiag_test_total", "a counter"); again != c {
		t.Fatal("same name+labels did not return the same handle")
	}

	g := r.Gauge("cfsmdiag_test_gauge", "a gauge")
	g.Set(10)
	g.Add(-3)
	g.Inc()
	g.Dec()
	if got := g.Value(); got != 7 {
		t.Fatalf("gauge = %d, want 7", got)
	}
}

func TestLabeledSeriesAreDistinct(t *testing.T) {
	r := New()
	a := r.Counter("cfsmdiag_http_requests_total", "requests", L("route", "/v1/validate"), L("code", "200"))
	b := r.Counter("cfsmdiag_http_requests_total", "requests", L("route", "/v1/validate"), L("code", "400"))
	if a == b {
		t.Fatal("different label values share a handle")
	}
	// Label order must not matter.
	c := r.Counter("cfsmdiag_http_requests_total", "requests", L("code", "200"), L("route", "/v1/validate"))
	if a != c {
		t.Fatal("label order changed series identity")
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := New()
	h := r.Histogram("cfsmdiag_test_seconds", "latencies", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Fatalf("count = %d, want 5", h.Count())
	}
	if got, want := h.Sum(), 0.05+0.5+0.5+5+50; got != want {
		t.Fatalf("sum = %v, want %v", got, want)
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, line := range []string{
		`cfsmdiag_test_seconds_bucket{le="0.1"} 1`,
		`cfsmdiag_test_seconds_bucket{le="1"} 3`,
		`cfsmdiag_test_seconds_bucket{le="10"} 4`,
		`cfsmdiag_test_seconds_bucket{le="+Inf"} 5`,
		`cfsmdiag_test_seconds_count 5`,
	} {
		if !strings.Contains(out, line) {
			t.Errorf("exposition missing %q:\n%s", line, out)
		}
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := New()
	r.Counter("cfsmdiag_b_total", "second").Add(2)
	r.Counter("cfsmdiag_a_total", "first\nmultiline").Inc()
	r.Gauge("cfsmdiag_g", "gauge", L("kind", `quo"te`)).Set(-4)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Families sorted by name; help escaped; label values escaped.
	if !strings.Contains(out, "# HELP cfsmdiag_a_total first\\nmultiline") {
		t.Errorf("help not escaped:\n%s", out)
	}
	if strings.Index(out, "cfsmdiag_a_total") > strings.Index(out, "cfsmdiag_b_total") {
		t.Errorf("families not sorted:\n%s", out)
	}
	if !strings.Contains(out, `cfsmdiag_g{kind="quo\"te"} -4`) {
		t.Errorf("label value not escaped:\n%s", out)
	}
	if !strings.Contains(out, "# TYPE cfsmdiag_b_total counter") {
		t.Errorf("missing TYPE line:\n%s", out)
	}

	srv := httptest.NewServer(r.Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x", "")
	g := r.Gauge("x2", "")
	h := r.Histogram("x3", "", nil)
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Dec()
	h.Observe(1)
	h.ObserveInt(2)
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil handles retained values")
	}
	if err := r.WritePrometheus(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("nil registry handler status = %d", rec.Code)
	}

	var l *Logger
	l.Info("dropped", "k", "v")
	l.Warn("dropped")
	l.Error("dropped")
}

func TestKindMismatchPanics(t *testing.T) {
	r := New()
	r.Counter("cfsmdiag_clash", "")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("cfsmdiag_clash", "")
}

// TestConcurrentRegistryUpdates exercises the registry from many goroutines
// (run with -race): concurrent series creation, counter/gauge/histogram
// updates and expositions must be safe together.
func TestConcurrentRegistryUpdates(t *testing.T) {
	r := New()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			routes := []string{"/v1/validate", "/v1/diagnose", "/v1/analyze"}
			for i := 0; i < 500; i++ {
				route := routes[i%len(routes)]
				r.Counter("cfsmdiag_http_requests_total", "requests", L("route", route)).Inc()
				r.Gauge("cfsmdiag_http_in_flight_requests", "in flight").Add(1)
				r.Histogram("cfsmdiag_http_request_duration_seconds", "latency", nil, L("route", route)).Observe(float64(i) / 1000)
				r.Gauge("cfsmdiag_http_in_flight_requests", "in flight").Add(-1)
				if i%100 == 0 {
					var buf bytes.Buffer
					if err := r.WritePrometheus(&buf); err != nil {
						t.Error(err)
					}
				}
			}
		}(w)
	}
	wg.Wait()
	total := int64(0)
	for _, route := range []string{"/v1/validate", "/v1/diagnose", "/v1/analyze"} {
		total += r.Counter("cfsmdiag_http_requests_total", "requests", L("route", route)).Value()
	}
	if total != 8*500 {
		t.Fatalf("lost updates: total = %d, want %d", total, 8*500)
	}
	if v := r.Gauge("cfsmdiag_http_in_flight_requests", "in flight").Value(); v != 0 {
		t.Fatalf("in-flight gauge = %d, want 0", v)
	}
}

func TestLoggerOutput(t *testing.T) {
	var buf bytes.Buffer
	l := NewLogger(&buf, slog.LevelWarn, false)
	l.Info("hidden")
	l.Warn("served", "route", "/v1/validate", "code", 200)
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Errorf("info leaked at warn level: %s", out)
	}
	for _, want := range []string{"served", "level=WARN", "route=/v1/validate", "code=200"} {
		if !strings.Contains(out, want) {
			t.Errorf("log line missing %q: %s", want, out)
		}
	}

	buf.Reset()
	j := NewLogger(&buf, slog.LevelInfo, true)
	j.Info("served", "route", "/healthz")
	if !strings.Contains(buf.String(), `"route":"/healthz"`) {
		t.Errorf("json log malformed: %s", buf.String())
	}
}
