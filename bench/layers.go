package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"poiesis"
	"poiesis/internal/core"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/policy"
	"poiesis/internal/sim"
	"poiesis/internal/skyline"
	"poiesis/internal/trace"
)

// span is one interval the benchmark recorded around a call into a layer,
// or imported from the service's own trace of a request.
type span struct {
	name   string
	start  time.Time
	dur    time.Duration
	parent int // index of the parent span in the log; -1 for none
	pid    int // Chrome trace process row
	tid    int // Chrome trace thread row
}

// Process rows of the Chrome traces.
const (
	pidRequests = 1 // client-side request spans, one row per analyst
	pidStore    = 2 // session-backend calls
	pidServer   = 3 // spans the service recorded for fetched traces
	pidReplay   = 4 // the single-threaded plan replay
)

var pidNames = map[int]string{pidRequests: "requests", pidStore: "store", pidServer: "server", pidReplay: "replay"}

// spanLog keeps spans in memory until the run writes them out.
type spanLog struct {
	mu    sync.Mutex
	spans []span
}

func (l *spanLog) add(s span) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, s)
	return len(l.spans) - 1
}

// append adds the spans of o, keeping their parent links.
func (l *spanLog) append(o *spanLog) {
	l.mu.Lock()
	defer l.mu.Unlock()
	base := len(l.spans)
	for _, s := range o.spans {
		if s.parent >= 0 {
			s.parent += base
		}
		l.spans = append(l.spans, s)
	}
}

// end closes span i at the current time.
func (l *spanLog) end(i int) {
	l.mu.Lock()
	l.spans[i].dur = time.Since(l.spans[i].start)
	l.mu.Unlock()
}

// selfTimes sums, per span name within one process row, the spans' time
// minus the part their child spans cover; counts is the number of spans.
func (l *spanLog) selfTimes(pid int) (self map[string]time.Duration, counts map[string]int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	self, counts = map[string]time.Duration{}, map[string]int{}
	for _, s := range l.spans {
		if s.pid != pid {
			continue
		}
		self[s.name] += s.dur
		counts[s.name]++
		if s.parent >= 0 {
			self[l.spans[s.parent].name] -= s.dur
		}
	}
	return self, counts
}

// writeChrome writes the log as Chrome trace-event JSON, for Perfetto or
// about:tracing.
func (l *spanLog) writeChrome(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	var t0 time.Time
	for _, s := range l.spans {
		if t0.IsZero() || s.start.Before(t0) {
			t0 = s.start
		}
	}
	events := make([]event, 0, len(l.spans)+len(pidNames))
	for pid, name := range pidNames {
		events = append(events, event{Name: "process_name", Ph: "M", PID: pid, Args: map[string]any{"name": name}})
	}
	sort.Slice(events, func(i, j int) bool { return events[i].PID < events[j].PID })
	for _, s := range l.spans {
		events = append(events, event{
			Name: s.name, Ph: "X", PID: s.pid, TID: s.tid,
			Ts:  float64(s.start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
		})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// Layer spans of the plan replay, each reported as <name>_ms.
var replayLayers = []string{
	"policy.propose", "fcp.apply", "etl.clone", "etl.fingerprint",
	"sim.execute", "sim.sample", "measures.estimate", "skyline.add", "policy.check",
}

// replayStats counts what one replayed plan did.
type replayStats struct {
	candidates, generated, deduped, evaluated int
	nodes, coneHits, executed                 int
	sky                                       skyDoc
}

// replay re-runs one plan on a single goroutine through the same exported
// calls the planner makes — propose, clone, apply, fingerprint, execute with
// one evaluation cache seeded by the initial flow, sample, estimate, check,
// skyline insertion — and records each call as a span. Its skyline must
// equal the planner's; the caller checks that.
func replay(p *poiesis.Planner, g *etl.Graph, bind sim.Binding, log *spanLog) (replayStats, error) {
	var out replayStats
	opts := p.Options()
	if len(opts.Constraints) > 0 || opts.DisableDedup {
		return out, errors.New("replay covers unconstrained, deduplicated plans only")
	}
	palette, err := p.Registry().Palette(opts.Palette...)
	if err != nil {
		return out, err
	}
	engine := sim.NewEngine(opts.Sim)
	cache := sim.NewEvalCache()
	root := log.add(span{name: "core.replay", start: time.Now(), parent: -1, pid: pidReplay})
	defer log.end(root)
	timed := func(name string, f func()) {
		t := time.Now()
		f()
		log.add(span{name: name, start: t, dur: time.Since(t), parent: root, pid: pidReplay})
	}
	evaluate := func(flow *etl.Graph) (prof *sim.Profile, batch *trace.Batch, err error) {
		var es sim.ExecStats
		timed("sim.execute", func() { prof, err = engine.ExecuteDeltaStats(flow, bind, cache, &es) })
		if err != nil {
			return nil, nil, err
		}
		out.nodes += es.Nodes
		out.coneHits += es.ConeHits
		out.executed += es.Executed
		timed("sim.sample", func() {
			batch = &trace.Batch{
				Flow:                 flow.Name,
				Runs:                 engine.Sample(flow, prof, opts.Sim.Runs),
				SourceUpdatesPerHour: engine.SourceUpdatesPerHour(flow, bind),
				PeriodMinutes:        periodMinutes(flow),
			}
		})
		return prof, batch, nil
	}

	prof, batch, err := evaluate(g)
	if err != nil {
		return out, err
	}
	est := measures.NewEstimator(measures.BaselineConfig(g, prof, batch))
	for _, cm := range opts.CustomMeasures {
		est.WithCustomMeasure(cm)
	}
	timed("measures.estimate", func() { est.Estimate(g, prof, batch) })
	seen := map[string]bool{}
	timed("etl.fingerprint", func() { seen[g.Fingerprint()] = true })

	type design struct {
		g    *etl.Graph
		apps []fcp.Application
	}
	frontier := []design{{g: g}}
	inc := skyline.NewIncremental()
	var kept []core.Alternative
	emitted := 0
rounds:
	for round := 0; round < opts.Depth && len(frontier) > 0; round++ {
		var next []design
		for _, cur := range frontier {
			var cands []policy.Candidate
			timed("policy.propose", func() { cands = opts.Policy.Propose(cur.g, palette) })
			out.candidates += len(cands)
			for _, c := range cands {
				if emitted >= opts.MaxAlternatives {
					break rounds
				}
				var clone *etl.Graph
				timed("etl.clone", func() { clone = cur.g.Clone() })
				var app fcp.Application
				var aerr error
				timed("fcp.apply", func() { app, aerr = c.Pattern.Apply(clone, c.Point) })
				if aerr != nil {
					continue
				}
				out.generated++
				var fp string
				timed("etl.fingerprint", func() { fp = clone.Fingerprint() })
				if seen[fp] {
					out.deduped++
					continue
				}
				seen[fp] = true
				d := design{g: clone, apps: append(append([]fcp.Application(nil), cur.apps...), app)}
				next = append(next, d)
				emitted++
				prof, batch, err := evaluate(clone)
				if err != nil {
					continue // the planner drops alternatives that fail to evaluate
				}
				var r *measures.Report
				timed("measures.estimate", func() { r = est.Estimate(clone, prof, batch) })
				out.evaluated++
				var ok bool
				timed("policy.check", func() { ok, _ = policy.CheckAll(r, opts.Constraints) })
				if !ok {
					continue
				}
				kept = append(kept, core.Alternative{Graph: clone, Applications: d.apps, Report: r})
				timed("skyline.add", func() { inc.Add(len(kept)-1, r.Vector(opts.Dims)) })
			}
		}
		frontier = next
	}
	out.sky = docOf(&core.Result{Alternatives: kept, SkylineIdx: inc.Indices(), Dims: opts.Dims})
	return out, nil
}

// periodMinutes reads the flow's recurrence period the way the simulator
// does: the first "schedule.period_minutes" parameter, default 60.
func periodMinutes(g *etl.Graph) float64 {
	for _, n := range g.Nodes() {
		if v := n.Param("schedule.period_minutes"); v != "" {
			if f, err := strconv.ParseFloat(v, 64); err == nil && f > 0 {
				return f
			}
		}
	}
	return 60
}

// timePlans runs p on the input until at least a second has passed (at
// most seven times) and returns the median time and the last result.
func timePlans(ctx context.Context, p *poiesis.Planner, g *etl.Graph, bind sim.Binding) (time.Duration, *poiesis.Result, error) {
	var times []float64
	var res *poiesis.Result
	var total time.Duration
	for len(times) < 7 && (total < time.Second || len(times) == 0) {
		t := time.Now()
		var err error
		if res, err = p.PlanContext(ctx, g, bind); err != nil {
			return 0, nil, err
		}
		d := time.Since(t)
		total += d
		times = append(times, float64(d))
	}
	return time.Duration(percentile(times, 50)), res, nil
}

// planLayers breaks one plan of the workload down by layer: replays on one
// CPU, timed call by call, alternating with the real planner on one CPU,
// then the real planner on all CPUs. The replay with the median layer sum
// stands for the plan, and its layers must add up to the median one-CPU
// plan.
func planLayers(ctx context.Context, rep *report, p *poiesis.Planner, g *etl.Graph, bind sim.Binding, log *spanLog, stderr func(string)) error {
	opts := p.Options()
	opts.Workers = 1
	single := poiesis.NewPlanner(p.Registry(), opts)
	type pair struct {
		stats replayStats
		log   *spanLog
		sum   time.Duration // replayed layers
		w1    float64       // one-CPU plan, in nanoseconds
	}
	var pairs []pair
	var err error
	runtime.GC()
	prev := runtime.GOMAXPROCS(1)
	for start := time.Now(); len(pairs) < 3 || (len(pairs) < 9 && time.Since(start) < 2*time.Second); {
		pr := pair{log: &spanLog{}}
		if pr.stats, err = replay(p, g, bind, pr.log); err != nil {
			break
		}
		t := time.Now()
		if _, err = single.PlanContext(ctx, g, bind); err != nil {
			break
		}
		pr.w1 = float64(time.Since(t))
		self, _ := pr.log.selfTimes(pidReplay)
		for _, name := range replayLayers {
			pr.sum += self[name]
		}
		pairs = append(pairs, pr)
	}
	runtime.GOMAXPROCS(prev)
	if err != nil {
		return err
	}
	full, res, err := timePlans(ctx, p, g, bind)
	if err != nil {
		return err
	}
	var w1s []float64
	for _, pr := range pairs {
		w1s = append(w1s, pr.w1)
	}
	w1 := time.Duration(percentile(w1s, 50))
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].sum < pairs[j].sum })
	mid := pairs[len(pairs)/2]
	log.append(mid.log)

	rs := mid.stats
	rep.Attempted++
	if rs.sky.canonical(-1) != docOf(res).canonical(-1) || rs.generated != res.Stats.Generated ||
		rs.deduped != res.Stats.Deduped || rs.evaluated != res.Stats.Evaluated {
		rep.Failed++
		stderr("the single-threaded replay did not reproduce the planner's result; its layer times do not describe the plan")
	}
	self, counts := mid.log.selfTimes(pidReplay)
	for _, name := range replayLayers {
		rep.add(name+"_ms", ms(self[name]), counts[name])
	}
	rep.add("policy.candidates", float64(rs.candidates), 1)
	if rs.nodes > 0 {
		rep.add("sim.cone_hit_pct", 100*float64(rs.coneHits)/float64(rs.nodes), rs.nodes)
	}
	rep.add("sim.nodes_executed", float64(rs.executed), 1)
	rep.add("core.generated", float64(res.Stats.Generated), 1)
	rep.add("core.deduped", float64(res.Stats.Deduped), 1)
	rep.add("core.static_pruned", float64(res.Stats.StaticPruned), 1)
	rep.add("core.evaluated", float64(res.Stats.Evaluated), 1)
	if res.Stats.Generated > 0 {
		rep.add("core.useful_pct", 100*float64(res.Stats.Evaluated)/float64(res.Stats.Generated), 1)
	}
	rep.add("core.plan_ms", ms(full), 1)
	rep.add("core.plan_ms_w1", ms(w1), len(pairs))
	rep.add("core.parallel_speedup", float64(w1)/float64(full), 1)
	unattributed := 100 * float64(w1-mid.sum) / float64(w1)
	rep.add("core.unattributed_pct", unattributed, len(pairs))
	// Plans of a few milliseconds are too short to hold the layers to this
	// limit on a noisy host; the Fig. 4 plan is not.
	if (unattributed > 15 || unattributed < -15) && w1 >= 100*time.Millisecond {
		stderr(fmt.Sprintf("warning: the replayed layers add up to %.1f ms against %.1f ms for the one-CPU plan (%.1f%% unattributed, limit 15%%)",
			ms(mid.sum), ms(w1), unattributed))
	}
	return nil
}

// addRuntime records the allocator and collector metrics of a window.
func addRuntime(rep *report, w *window) {
	n := len(w.ops)
	if n == 0 {
		return
	}
	rep.add("runtime.gc_pause_ms", ms(w.use1.gcPause-w.use0.gcPause), n)
	rep.add("runtime.alloc_mb_per_op", float64(w.use1.alloc-w.use0.alloc)/1e6/float64(n), n)
}

// addOverhead records how much slower the traced window was, by the
// analysts' median script time.
func addOverhead(rep *report, plain, traced *window) {
	a, b := percentile(plain.analystMs, 50), percentile(traced.analystMs, 50)
	rep.add("trace_overhead_pct", 100*(b-a)/a, len(traced.analystMs))
}
