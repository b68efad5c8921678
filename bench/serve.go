package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptrace"
	"os"
	"runtime"
	"sync"
	"syscall"
	"time"
)

// Request classes and their latency limits.
const (
	classPlan   = "plan" // a plan the server computed
	classCached = "cached_plan"
	classRead   = "read"
	classWrite  = "write"
)

var classes = []string{classPlan, classCached, classRead, classWrite}

var classLimit = map[string]time.Duration{
	classPlan:   500 * time.Millisecond,
	classCached: 50 * time.Millisecond,
	classRead:   20 * time.Millisecond,
	classWrite:  50 * time.Millisecond,
}

// sample is one timed operation. Latency runs from due — when the operation
// should have started — to done, so a stall also charges the operations
// queued behind it.
type sample struct {
	analyst int
	step    step
	class   string
	target  int // replica the request was sent to
	sid     string
	due     time.Time
	sent    time.Time // connection in hand (traced runs) or request handed to the client
	done    time.Time
	bytes   int
	failed  bool
	traceID string
}

func (s *sample) latencyMs() float64 { return ms(s.done.Sub(s.due)) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// client sends the analysts' requests: at most one request per CPU is in
// flight across all replicas, and connections are reused.
type client struct {
	hc     *http.Client
	sem    chan struct{}
	urls   []string
	traced bool
}

func newClient(urls []string, traced bool) *client {
	tr := &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 2 * runtime.NumCPU(),
		IdleConnTimeout:     90 * time.Second,
		DisableCompression:  true,
	}
	return &client{
		hc:     &http.Client{Transport: tr, Timeout: time.Minute},
		sem:    make(chan struct{}, runtime.NumCPU()),
		urls:   urls,
		traced: traced,
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// do sends one request and reads the whole reply into buf, stamping s with
// its send and completion times, size and trace ID.
func (c *client) do(ctx context.Context, s *sample, method, path string, body []byte, buf *bytes.Buffer) (int, error) {
	select {
	case c.sem <- struct{}{}:
	case <-ctx.Done():
		return 0, ctx.Err()
	}
	defer func() { <-c.sem }()
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.urls[s.target]+path, rd)
	if err != nil {
		return 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.traced {
		req = req.WithContext(httptrace.WithClientTrace(req.Context(), &httptrace.ClientTrace{
			GotConn: func(httptrace.GotConnInfo) { s.sent = time.Now() },
		}))
	} else {
		s.sent = time.Now()
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		s.done = time.Now()
		return 0, err
	}
	buf.Reset()
	_, err = buf.ReadFrom(resp.Body)
	resp.Body.Close()
	s.done = time.Now()
	s.bytes = buf.Len()
	s.traceID = resp.Header.Get("X-Poiesis-Trace-ID")
	return resp.StatusCode, err
}

// get fetches a JSON document outside the measured traffic.
func (c *client) get(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// scriptResult is one analyst's run through its script.
type scriptResult struct {
	a        analystSpec
	arrival  time.Time
	end      time.Time
	complete bool
	samples  []sample
	// served holds, for checked analysts, every reply that carries a
	// skyline, with the number of plans made before it.
	served []servedBody
}

type servedBody struct {
	plans int
	body  []byte
}

// serveRun drives one served workload against one service instance.
type serveRun struct {
	spec serveSpec
	seed uint64
	cl   *client
}

// analyst runs one analyst's script: the first request is due at arrival,
// each later one when the previous reply arrived. A failed request ends the
// script.
func (r *serveRun) analyst(ctx context.Context, a analystSpec, arrival time.Time) scriptResult {
	rng := rand.New(rand.NewPCG(r.seed, uint64(a.index)+1))
	res := scriptResult{a: a, arrival: arrival, samples: make([]sample, 0, len(r.spec.script))}
	var buf bytes.Buffer
	due := arrival
	sid := ""
	plans := 0
	for _, st := range r.spec.script {
		s := sample{analyst: a.index, step: st, sid: sid, due: due, class: classWrite}
		if r.spec.replicas > 1 {
			s.target = rng.IntN(r.spec.replicas)
		}
		method, path, body, want := r.request(st, sid, a)
		status, err := r.cl.do(ctx, &s, method, path, body, &buf)
		s.failed = err != nil || status != want
		switch st {
		case stepPlan:
			s.class = classPlan
			if cachedReply(buf.Bytes()) {
				s.class = classCached
			}
			plans++
		case stepSkyline, stepSession:
			s.class = classRead
		case stepCreate:
			var created struct {
				ID string `json:"id"`
			}
			if !s.failed && (json.Unmarshal(buf.Bytes(), &created) != nil || created.ID == "") {
				s.failed = true
			}
			sid, s.sid = created.ID, created.ID
		}
		if !s.failed && a.check && (st == stepPlan || st == stepSkyline) {
			res.served = append(res.served, servedBody{plans: plans, body: bytes.Clone(buf.Bytes())})
		}
		res.samples = append(res.samples, s)
		due = s.done
		if s.failed {
			break
		}
	}
	res.end = due
	res.complete = len(res.samples) == len(r.spec.script) && !res.samples[len(res.samples)-1].failed
	return res
}

// request builds one script step's HTTP request and its success status.
func (r *serveRun) request(st step, sid string, a analystSpec) (method, path string, body []byte, want int) {
	base := "/v1/sessions/" + sid
	switch st {
	case stepCreate:
		body = fmt.Appendf(nil, `{"flow":{"builtin":%q},"scale":%d,"seed":%d,"config":%s}`,
			a.flow, r.spec.scale, a.seed, r.spec.doc)
		return http.MethodPost, "/v1/sessions", body, http.StatusCreated
	case stepPlan:
		return http.MethodPost, base + "/plan", nil, http.StatusOK
	case stepSkyline:
		return http.MethodGet, base + "/skyline", nil, http.StatusOK
	case stepSession:
		return http.MethodGet, base, nil, http.StatusOK
	case stepSelect:
		return http.MethodPost, base + "/select", []byte(`{"index":0}`), http.StatusOK
	default:
		return http.MethodDelete, base, nil, http.StatusNoContent
	}
}

// cachedReply reads the "cached" flag of a plan reply. The flag is the
// reply's first field, so the common case needs no decoding.
func cachedReply(b []byte) bool {
	switch {
	case bytes.HasPrefix(b, []byte(`{"cached":true`)):
		return true
	case bytes.HasPrefix(b, []byte(`{"cached":false`)):
		return false
	}
	var v struct {
		Cached bool `json:"cached"`
	}
	_ = json.Unmarshal(b, &v) // an undecodable reply already failed its status check or a later check
	return v.Cached
}

// window is one measured window's outcome.
type window struct {
	start, warmEnd, winEnd time.Time
	// results holds every analyst's script, warm-up included.
	results []scriptResult
	// ops are the operations due within the measured window.
	ops []sample
	// analystMs are the script times of analysts arriving in the window.
	analystMs  []float64
	lagsMs     []float64
	use0, use1 usage
	heapMB     float64
	// alternatives counts alternatives evaluated in the window (fig4-plan).
	alternatives int
	wall         time.Duration
}

// measure runs the analysts of sched against the service: an untimed
// warm-up, then the measured window; arrivals stop at its end and the
// analysts still running finish their scripts.
func (r *serveRun) measure(ctx context.Context, sched []analystSpec, warmup, length time.Duration) (*window, error) {
	runtime.GC() // every window starts from the same collector state
	w := &window{start: time.Now()}
	w.warmEnd = w.start.Add(warmup)
	w.winEnd = w.warmEnd.Add(length)
	var mu sync.Mutex
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		sleepUntil(ctx, w.warmEnd)
		w.use0 = takeUsage()
		sleepUntil(ctx, w.winEnd)
		w.use1 = takeUsage()
	}()
	for _, a := range sched {
		at := w.start.Add(a.at)
		if !sleepUntil(ctx, at) {
			break
		}
		w.lagsMs = append(w.lagsMs, ms(time.Since(at)))
		wg.Add(1)
		go func() {
			defer wg.Done()
			res := r.analyst(ctx, a, at)
			mu.Lock()
			w.results = append(w.results, res)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	w.heapMB = retainedHeapMB()
	w.wall = w.winEnd.Sub(w.warmEnd)
	for _, res := range w.results {
		for _, s := range res.samples {
			if !s.due.Before(w.warmEnd) && s.due.Before(w.winEnd) {
				w.ops = append(w.ops, s)
			}
		}
		if res.complete && !res.arrival.Before(w.warmEnd) && res.arrival.Before(w.winEnd) {
			w.analystMs = append(w.analystMs, ms(res.end.Sub(res.arrival)))
		}
	}
	return w, nil
}

// sleepUntil waits for t; false when ctx ended first.
func sleepUntil(ctx context.Context, t time.Time) bool {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err() == nil
	}
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// usage is a snapshot of the process's CPU time and allocator counters.
type usage struct {
	cpu     time.Duration
	gcPause time.Duration
	alloc   uint64
}

func takeUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		fmt.Fprintf(os.Stderr, "bench: getrusage: %v\n", err)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return usage{
		cpu:     time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		gcPause: time.Duration(mem.PauseTotalNs),
		alloc:   mem.TotalAlloc,
	}
}

// retainedHeapMB is the live heap after a full collection.
func retainedHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return float64(mem.HeapAlloc) / 1e6
}

// okLatencies returns the latencies of the successful operations of a
// class.
func okLatencies(ops []sample, class string) []float64 {
	var out []float64
	for i := range ops {
		if !ops[i].failed && ops[i].class == class {
			out = append(out, ops[i].latencyMs())
		}
	}
	return out
}

// addEndToEnd records the end-to-end metrics of a window.
func (w *window) addEndToEnd(rep *report, setupS []float64) {
	rep.add("setup_s", percentile(setupS, 50), len(setupS))
	sky := append(okLatencies(w.ops, classPlan), okLatencies(w.ops, classCached)...)
	rep.add("skyline_ms_p50", percentile(sky, 50), len(sky))
	rep.add("analyst_ms_p50", percentile(w.analystMs, 50), len(w.analystMs))
	if len(w.ops) > 0 {
		rep.add("cpu_ms_per_op", ms(w.use1.cpu-w.use0.cpu)/float64(len(w.ops)), len(w.ops))
	}
	rep.add("heap_retained_mb", w.heapMB, 1)

	plan := okLatencies(w.ops, classPlan)
	cached := okLatencies(w.ops, classCached)
	read := okLatencies(w.ops, classRead)
	write := okLatencies(w.ops, classWrite)
	rep.add("plan_ms_p50", percentile(plan, 50), len(plan))
	rep.add("cached_plan_ms_p50", percentile(cached, 50), len(cached))
	rep.add("read_ms_p50", percentile(read, 50), len(read))
	rep.add("write_ms_p50", percentile(write, 50), len(write))
	if w.alternatives > 0 {
		rep.add("alternatives_per_s", float64(w.alternatives)/w.wall.Seconds(), len(w.ops))
	}
	failed, missed := 0, 0
	for i := range w.ops {
		s := &w.ops[i]
		if s.failed {
			failed++
		}
		if s.failed || s.done.Sub(s.due) > classLimit[s.class] {
			missed++
		}
	}
	if n := len(w.ops); n > 0 {
		rep.add("error_pct", 100*float64(failed)/float64(n), n)
		if w.alternatives == 0 {
			rep.add("slo_miss_pct", 100*float64(missed)/float64(n), n)
		}
	}
	rep.countOps(w.ops)
}

// countOps adds a window's operations to the attempted and failed counts.
func (r *report) countOps(ops []sample) {
	r.Attempted += len(ops)
	for i := range ops {
		if ops[i].failed {
			r.Failed++
		}
	}
}
