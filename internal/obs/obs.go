// Package obs is a zero-dependency observability toolkit for the poiesis
// service: a metrics registry (counters, gauges, fixed-bucket latency
// histograms with quantile estimation) that renders in the Prometheus text
// exposition format, plus request-ID plumbing shared by the HTTP server and
// the cluster client so one request can be followed across replicas.
//
// The registry is safe for concurrent use. Metric handles are cheap atomic
// cells; looking one up through a *Vec takes a short-lived lock, so hot
// paths should resolve their handles once and keep them.
package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// DefBuckets are the default latency histogram bounds in seconds: roughly
// exponential from 100µs to 60s, chosen so that cached plan serves (~1ms),
// fresh plan runs (tens of ms to seconds) and fsync-bound backend writes
// (~2ms) each land in a resolvable region.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
	0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// Counter is a monotonically increasing metric. Set exists so the server can
// mirror pre-existing atomic counters into the registry at scrape time
// without double-counting; callers otherwise use Inc/Add.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n must be >= 0 for the exposition to stay monotonic).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Set overwrites the value. Only for mirroring an external monotonic source.
func (c *Counter) Set(n int64) { c.v.Store(n) }

// Value returns the current value.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down.
type Gauge struct{ v atomic.Int64 }

// Set overwrites the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n (may be negative).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc adds one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram is a fixed-bucket latency histogram. Observations are recorded
// in nanoseconds and exposed in seconds (the Prometheus convention for
// *_duration_seconds families). All methods are safe for concurrent use.
type Histogram struct {
	bounds []float64 // upper bounds in seconds, ascending; +Inf is implicit
	counts []atomic.Int64
	sum    atomic.Int64 // nanoseconds
	count  atomic.Int64

	// Exemplars: per bucket, the trace ID of the slowest observation in
	// the current window (a window runs from one exposition scrape to the
	// next). Lazily allocated so histograms never fed through ObserveEx
	// pay nothing.
	exMu sync.Mutex
	ex   []exemplarSlot
}

type exemplarSlot struct {
	nanos   int64
	traceID string
}

// Exemplar links one histogram bucket to the trace of its slowest
// observation in the current scrape window.
type Exemplar struct {
	Bucket  string  `json:"bucket"` // upper bound in seconds; "+Inf" for the overflow bucket
	TraceID string  `json:"traceId"`
	Seconds float64 `json:"seconds"`
}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not ascending at %d: %v", i, bounds))
		}
	}
	return &Histogram{bounds: bounds, counts: make([]atomic.Int64, len(bounds)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.sum.Add(int64(d))
	h.count.Add(1)
}

// ObserveEx records one duration and, when traceID is non-empty and this
// observation is the slowest its bucket has seen this window, remembers
// the trace ID as the bucket's exemplar. The exemplar path takes a short
// mutex separate from the atomic counters, so plain Observe callers are
// unaffected.
func (h *Histogram) ObserveEx(d time.Duration, traceID string) {
	h.Observe(d)
	if traceID == "" {
		return
	}
	secs := d.Seconds()
	i := 0
	for i < len(h.bounds) && secs > h.bounds[i] {
		i++
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]exemplarSlot, len(h.bounds)+1)
	}
	if int64(d) > h.ex[i].nanos {
		h.ex[i] = exemplarSlot{nanos: int64(d), traceID: traceID}
	}
	h.exMu.Unlock()
}

// exemplars snapshots the non-empty exemplar slots; reset starts a fresh
// window (done by the exposition writer, so a window is one scrape
// interval).
func (h *Histogram) exemplars(reset bool) []Exemplar {
	h.exMu.Lock()
	defer h.exMu.Unlock()
	if h.ex == nil {
		return nil
	}
	var out []Exemplar
	for i := range h.ex {
		if h.ex[i].nanos == 0 {
			continue
		}
		bucket := "+Inf"
		if i < len(h.bounds) {
			bucket = formatFloat(h.bounds[i])
		}
		out = append(out, Exemplar{
			Bucket:  bucket,
			TraceID: h.ex[i].traceID,
			Seconds: time.Duration(h.ex[i].nanos).Seconds(),
		})
		if reset {
			h.ex[i] = exemplarSlot{}
		}
	}
	return out
}

// Count returns the total number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

const (
	typeCounter   = "counter"
	typeGauge     = "gauge"
	typeHistogram = "histogram"
)

// family is one named metric with a fixed label set and type.
type family struct {
	name   string
	help   string
	typ    string
	labels []string
	bounds []float64 // histogram families only

	mu       sync.RWMutex
	children map[string]*child
	order    []*child // insertion order; sorted at exposition time
}

type child struct {
	values []string
	c      *Counter
	g      *Gauge
	h      *Histogram
}

func (f *family) child(values []string) *child {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %s wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := strings.Join(values, "\x00")
	f.mu.RLock()
	ch := f.children[key]
	f.mu.RUnlock()
	if ch != nil {
		return ch
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if ch = f.children[key]; ch != nil {
		return ch
	}
	ch = &child{values: append([]string(nil), values...)}
	switch f.typ {
	case typeCounter:
		ch.c = &Counter{}
	case typeGauge:
		ch.g = &Gauge{}
	case typeHistogram:
		ch.h = newHistogram(f.bounds)
	}
	f.children[key] = ch
	f.order = append(f.order, ch)
	return ch
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu   sync.RWMutex
	fams map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{fams: make(map[string]*family)} }

// register returns the family with this name, creating it on first use.
// Re-registering with a different type or label arity is a programming
// error and panics.
func (r *Registry) register(name, help, typ string, labels []string, bounds []float64) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + name)
	}
	r.mu.RLock()
	f := r.fams[name]
	r.mu.RUnlock()
	if f == nil {
		r.mu.Lock()
		if f = r.fams[name]; f == nil {
			f = &family{
				name: name, help: help, typ: typ,
				labels:   append([]string(nil), labels...),
				bounds:   append([]float64(nil), bounds...),
				children: make(map[string]*child),
			}
			r.fams[name] = f
		}
		r.mu.Unlock()
	}
	if f.typ != typ || len(f.labels) != len(labels) {
		panic(fmt.Sprintf("obs: metric %s re-registered as %s/%d labels (was %s/%d)",
			name, typ, len(labels), f.typ, len(f.labels)))
	}
	return f
}

// Counter returns the unlabeled counter with this name.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, typeCounter, nil, nil).child(nil).c
}

// Gauge returns the unlabeled gauge with this name.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, typeGauge, nil, nil).child(nil).g
}

// Histogram returns the unlabeled histogram with this name. Nil bounds use
// DefBuckets.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, typeHistogram, nil, bounds).child(nil).h
}

// CounterVec is a counter family with labels.
type CounterVec struct{ f *family }

// CounterVec returns the labeled counter family with this name.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, typeCounter, labels, nil)}
}

// With returns the counter for these label values, creating it on first use.
func (v *CounterVec) With(values ...string) *Counter { return v.f.child(values).c }

// GaugeVec is a gauge family with labels.
type GaugeVec struct{ f *family }

// GaugeVec returns the labeled gauge family with this name.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, typeGauge, labels, nil)}
}

// With returns the gauge for these label values, creating it on first use.
func (v *GaugeVec) With(values ...string) *Gauge { return v.f.child(values).g }

// HistogramVec is a histogram family with labels.
type HistogramVec struct{ f *family }

// HistogramVec returns the labeled histogram family with this name. Nil
// bounds use DefBuckets.
func (r *Registry) HistogramVec(name, help string, bounds []float64, labels ...string) *HistogramVec {
	return &HistogramVec{r.register(name, help, typeHistogram, labels, bounds)}
}

// With returns the histogram for these label values, creating it on first use.
func (v *HistogramVec) With(values ...string) *Histogram { return v.f.child(values).h }

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// ExemplarSample is one bucket exemplar with its metric identity, as
// surfaced in /v1/stats.
type ExemplarSample struct {
	Metric  string  `json:"metric"`
	Labels  string  `json:"labels,omitempty"` // rendered {k="v",...}
	Bucket  string  `json:"bucket"`
	TraceID string  `json:"traceId"`
	Seconds float64 `json:"seconds"`
}

// Exemplars snapshots every histogram bucket exemplar in the current
// scrape window without resetting it (the exposition writer owns the
// reset).
func (r *Registry) Exemplars() []ExemplarSample {
	var out []ExemplarSample
	for _, f := range r.sortedFamilies() {
		if f.typ != typeHistogram {
			continue
		}
		f.mu.RLock()
		children := append([]*child(nil), f.order...)
		f.mu.RUnlock()
		sort.Slice(children, func(i, j int) bool {
			return labelKey(children[i].values) < labelKey(children[j].values)
		})
		for _, ch := range children {
			for _, ex := range ch.h.exemplars(false) {
				out = append(out, ExemplarSample{
					Metric:  f.name,
					Labels:  labelString(f.labels, ch.values, ""),
					Bucket:  ex.Bucket,
					TraceID: ex.TraceID,
					Seconds: ex.Seconds,
				})
			}
		}
	}
	return out
}

// sortedFamilies snapshots the families sorted by name.
func (r *Registry) sortedFamilies() []*family {
	r.mu.RLock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.RUnlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	return fams
}
