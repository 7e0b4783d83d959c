package obs

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
)

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return sb.String()
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test_total", "a counter")
	r.GaugeFunc("test_gauge", "a gauge", func() float64 { return 1.5 })
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	out := render(t, r)
	for _, want := range []string{
		"# HELP test_total a counter\n# TYPE test_total counter\ntest_total 5\n",
		"# HELP test_gauge a gauge\n# TYPE test_gauge gauge\ntest_gauge 1.5\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestFamiliesSortedByName(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total", "")
	r.Counter("aaa_total", "")
	out := render(t, r)
	if strings.Index(out, "aaa_total") > strings.Index(out, "zzz_total") {
		t.Fatalf("families not sorted:\n%s", out)
	}
}

func TestDuplicateNamePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on duplicate registration")
		}
	}()
	r.Counter("dup_total", "")
}

func TestInvalidNamePanics(t *testing.T) {
	for _, bad := range []string{"", "9starts_with_digit", "has-dash", "has space"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for name %q", bad)
				}
			}()
			NewRegistry().Counter(bad, "")
		}()
	}
}

func TestFuncCollectors(t *testing.T) {
	r := NewRegistry()
	n := 7.0
	r.CounterFunc("poll_total", "polled", func() float64 { return n })
	r.GaugeFunc("poll_gauge", "polled", func() float64 { return n / 2 })
	out := render(t, r)
	if !strings.Contains(out, "poll_total 7\n") || !strings.Contains(out, "poll_gauge 3.5\n") {
		t.Fatalf("func collectors wrong:\n%s", out)
	}
	n = 9
	if out := render(t, r); !strings.Contains(out, "poll_total 9\n") {
		t.Fatalf("collector not re-evaluated at scrape:\n%s", out)
	}
}

func TestGaugeVecFuncRetiresSeries(t *testing.T) {
	r := NewRegistry()
	live := []LabeledValue{
		{Labels: []string{"job-2"}, Value: 1},
		{Labels: []string{"job-1"}, Value: 3},
	}
	var mu sync.Mutex
	r.GaugeVecFunc("job_subs", "per-job", []string{"job"}, func() []LabeledValue {
		mu.Lock()
		defer mu.Unlock()
		return append([]LabeledValue(nil), live...)
	})
	out := render(t, r)
	if !strings.Contains(out, `job_subs{job="job-1"} 3`) || !strings.Contains(out, `job_subs{job="job-2"} 1`) {
		t.Fatalf("vec samples missing:\n%s", out)
	}
	if strings.Index(out, `job="job-1"`) > strings.Index(out, `job="job-2"`) {
		t.Fatalf("vec samples not sorted by label:\n%s", out)
	}
	mu.Lock()
	live = live[:1] // job-1 went terminal
	mu.Unlock()
	out = render(t, r)
	if strings.Contains(out, "job-1") {
		t.Fatalf("terminal series not retired:\n%s", out)
	}
	if !strings.Contains(out, "job-2") {
		t.Fatalf("live series lost:\n%s", out)
	}
}

func TestCounterVec(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("req_total", "requests", "route", "code")
	v.With("/v1/jobs", "200").Add(3)
	v.With("/v1/jobs", "404").Inc()
	v.With("/healthz", "200").Inc()
	out := render(t, r)
	for _, want := range []string{
		`req_total{route="/healthz",code="200"} 1`,
		`req_total{route="/v1/jobs",code="200"} 3`,
		`req_total{route="/v1/jobs",code="404"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
	if strings.Count(out, "# TYPE req_total") != 1 {
		t.Errorf("family header repeated:\n%s", out)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on wrong label-value count")
		}
	}()
	v.With("only-one")
}

func TestHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.count.Load() != 5 {
		t.Fatalf("count = %d, want 5", h.count.Load())
	}
	out := render(t, r)
	for _, want := range []string{
		`lat_seconds_bucket{le="0.01"} 1`,
		`lat_seconds_bucket{le="0.1"} 3`,
		`lat_seconds_bucket{le="1"} 4`,
		`lat_seconds_bucket{le="+Inf"} 5`,
		`lat_seconds_sum 5.605`,
		`lat_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q:\n%s", want, out)
		}
	}
}

func TestHistogramBoundaryIsInclusive(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("b_seconds", "", []float64{1, 2})
	h.Observe(1) // le="1" is a cumulative upper bound: 1 <= 1
	out := render(t, r)
	if !strings.Contains(out, `b_seconds_bucket{le="1"} 1`) {
		t.Fatalf("boundary value not counted in its bucket:\n%s", out)
	}
}

func TestHistogramBadBucketsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on non-ascending buckets")
		}
	}()
	NewRegistry().Histogram("bad_seconds", "", []float64{2, 1})
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("esc_total", "a \"quoted\" C:\\path\nsecond line", "k")
	v.With("a\"b\\c\nd").Inc()
	out := render(t, r)
	if !strings.Contains(out, `esc_total{k="a\"b\\c\nd"} 1`) {
		t.Fatalf("label not escaped:\n%s", out)
	}
	// HELP text escapes backslash and newline but keeps quotes literal.
	if !strings.Contains(out, "# HELP esc_total a \"quoted\" C:\\\\path\\nsecond line\n") {
		t.Fatalf("help not escaped:\n%s", out)
	}
}

func TestHandlerAndHealthy(t *testing.T) {
	r := NewRegistry()
	if err := r.Healthy(); err == nil {
		t.Fatal("empty registry should not be healthy")
	}
	r.Counter("up_total", "").Inc()
	if err := r.Healthy(); err != nil {
		t.Fatalf("Healthy: %v", err)
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content-type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), "up_total 1") {
		t.Fatalf("handler body:\n%s", rec.Body.String())
	}
}

func TestHealthyRejectsNaN(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("ratio", "", func() float64 { return 0.0 / divisor() })
	if err := r.Healthy(); err == nil {
		t.Fatal("NaN collector should fail the self-check")
	}
}

// divisor defeats the compiler's constant-folding of 0.0/0.0.
func divisor() float64 { return 0 }

func TestConcurrentObserve(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("conc_total", "")
	h := r.Histogram("conc_seconds", "", []float64{0.5})
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 1000 {
				c.Inc()
				h.Observe(0.25)
			}
		}()
	}
	wg.Wait()
	if c.Value() != 8000 || h.count.Load() != 8000 {
		t.Fatalf("lost updates: counter=%d hist=%d", c.Value(), h.count.Load())
	}
}
