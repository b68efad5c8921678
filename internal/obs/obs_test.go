package obs

import (
	"bytes"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("poiesis_test_total", "a test counter")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	if again := r.Counter("poiesis_test_total", "a test counter"); again != c {
		t.Fatal("re-registering returned a different counter")
	}
	g := r.Gauge("poiesis_test_gauge", "a test gauge")
	g.Set(7)
	g.Dec()
	if got := g.Value(); got != 6 {
		t.Fatalf("gauge = %d, want 6", got)
	}
}

func TestCounterVecLabels(t *testing.T) {
	r := NewRegistry()
	v := r.CounterVec("poiesis_ops_total", "ops", "route", "code")
	v.With("/v1/plan", "2xx").Add(3)
	v.With("/v1/plan", "5xx").Inc()
	if got := v.With("/v1/plan", "2xx").Value(); got != 3 {
		t.Fatalf("labeled counter = %d, want 3", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("wrong label arity did not panic")
		}
	}()
	v.With("only-one")
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := newHistogram([]float64{0.001, 0.01})
	h.Observe(2 * time.Millisecond)
	h.Observe(time.Minute) // beyond the last bound
	for i, want := range []int64{0, 1, 1} {
		if got := h.counts[i].Load(); got != want {
			t.Errorf("bucket %d count = %d, want %d", i, got, want)
		}
	}
	if got := h.Count(); got != 2 {
		t.Fatalf("count = %d, want 2", got)
	}
}

func TestWriteAndParseRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("poiesis_plans_total", "plans").Add(12)
	r.GaugeVec("poiesis_depth", "queue depth", "queue").With(`we"ird\lab` + "\n").Set(-3)
	hv := r.HistogramVec("poiesis_lat_seconds", "latency", []float64{0.001, 0.1}, "route")
	hv.With("/v1/plan").Observe(5 * time.Millisecond)
	hv.With("/v1/plan").Observe(50 * time.Millisecond)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"# TYPE poiesis_plans_total counter",
		"poiesis_plans_total 12",
		"# TYPE poiesis_lat_seconds histogram",
		`poiesis_lat_seconds_bucket{route="/v1/plan",le="+Inf"} 2`,
		`poiesis_lat_seconds_count{route="/v1/plan"} 2`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("exposition missing %q:\n%s", want, text)
		}
	}
	samples, err := ParseText(strings.NewReader(text))
	if err != nil {
		t.Fatalf("ParseText: %v\n%s", err, text)
	}
	byKey := make(map[string]float64)
	for _, s := range samples {
		byKey[s.Key()] = s.Value
	}
	if byKey["poiesis_plans_total"] != 12 {
		t.Fatalf("parsed counter = %v", byKey["poiesis_plans_total"])
	}
	wantGauge := `poiesis_depth{queue="we\"ird\\lab` + "\n" + `"}`
	if got := byKey[Sample{Name: "poiesis_depth", Labels: map[string]string{"queue": "we\"ird\\lab\n"}}.Key()]; got != -3 {
		t.Fatalf("escaped label round-trip failed (%q): got %v, keys %v", wantGauge, got, byKey)
	}
	if byKey[`poiesis_lat_seconds_bucket{le="+Inf",route="/v1/plan"}`] != 2 {
		t.Fatalf("histogram +Inf bucket missing: %v", byKey)
	}
	sum := byKey[`poiesis_lat_seconds_sum{route="/v1/plan"}`]
	if math.Abs(sum-0.055) > 1e-9 {
		t.Fatalf("histogram sum = %v, want 0.055", sum)
	}

	// Deterministic output: a second render is byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("exposition not deterministic")
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, bad := range []string{
		"orphan_metric 1\n",                           // no TYPE
		"# TYPE m counter\nm{x=\"unterminated} 1\n",   // bad label quoting
		"# TYPE m counter\nm notanumber\n",            // bad value
		"# TYPE m sideways\nm 1\n",                    // unknown type
		"# TYPE m counter\n0bad{x=\"y\"} 1\n",         // invalid name
		"# TYPE m counter\nm{x=\"a\\q\"} 1\n",         // bad escape
		"# TYPE m histogram\nm_quantile{q=\"1\"} 1\n", // not a histogram suffix
		"# TYPE m counter\nm 1 2 3\n",                 // trailing junk
	} {
		if _, err := ParseText(strings.NewReader(bad)); err == nil {
			t.Errorf("ParseText accepted %q", bad)
		}
	}
	// Timestamps are part of the format and accepted.
	if _, err := ParseText(strings.NewReader("# TYPE m counter\nm 1 1712000000\n")); err != nil {
		t.Errorf("timestamped sample rejected: %v", err)
	}
	// Braces inside quoted values must not terminate the label set: HTTP
	// route labels carry mux patterns like /v1/sessions/{id}/plan.
	in := "# TYPE m counter\nm{route=\"POST /v1/sessions/{id}/plan\"} 3\n"
	samples, err := ParseText(strings.NewReader(in))
	if err != nil {
		t.Fatalf("braced label value rejected: %v", err)
	}
	if len(samples) != 1 || samples[0].Labels["route"] != "POST /v1/sessions/{id}/plan" {
		t.Errorf("braced label value mangled: %+v", samples)
	}
}

func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				r.CounterVec("poiesis_conc_total", "c", "worker").With("w").Inc()
				r.HistogramVec("poiesis_conc_seconds", "h", nil, "worker").With("w").Observe(time.Millisecond)
				r.Gauge("poiesis_conc_gauge", "g").Add(1)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				var buf bytes.Buffer
				if err := r.WritePrometheus(&buf); err != nil {
					t.Error(err)
					return
				}
				if _, err := ParseText(&buf); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := r.CounterVec("poiesis_conc_total", "c", "worker").With("w").Value(); got != 8*500 {
		t.Fatalf("concurrent counter = %d, want %d", got, 8*500)
	}
}

func TestBuildInfo(t *testing.T) {
	v, rev := BuildInfo()
	if v == "" || rev == "" {
		t.Fatalf("BuildInfo() = %q, %q", v, rev)
	}
	if len(rev) > 12 {
		t.Fatalf("revision %q not truncated", rev)
	}
}
