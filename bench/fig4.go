package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"poiesis"
	"poiesis/internal/obs"
)

// fig4-plan times its microsecond set-up in batches, each from a freshly
// collected heap, and reports the median batch's time per set-up.
const (
	fig4SetupBatches = 40
	fig4SetupBatch   = 25
)

// fig4Run is the state of one fig4-plan run.
type fig4Run struct {
	planner *poiesis.Planner
	flow    *poiesis.Graph
	order   []uint64
	binds   map[uint64]poiesis.Binding
	golden  map[string]goldenEntry
	next    int // position in order of the next plan
	// tracer, when set, roots a trace around every plan, as the service
	// does for sampled requests.
	tracer *obs.Tracer
	log    *spanLog
}

func runFig4(ctx context.Context, cfg config) (*report, error) {
	rep := &report{Workload: "fig4-plan"}
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	r := &fig4Run{order: fig4Order(cfg.seed), golden: golden, binds: map[uint64]poiesis.Binding{}}

	// Set-up is everything before the first plan: the flow, its binding and
	// the planner.
	var setup []float64
	for i := 0; i < fig4SetupBatches; i++ {
		runtime.GC()
		t := time.Now()
		for j := 0; j < fig4SetupBatch; j++ {
			flow, _ := poiesis.BuiltinFlow(fig4Flow)
			bind := poiesis.TPCDSBinding(flow, fig4Scale, r.order[0])
			planner := poiesis.NewPlanner(nil, fig4Options())
			r.flow, r.planner, r.binds[r.order[0]] = flow, planner, bind
		}
		setup = append(setup, time.Since(t).Seconds()/fig4SetupBatch)
	}
	for _, s := range r.order {
		if _, ok := r.binds[s]; !ok {
			r.binds[s] = poiesis.TPCDSBinding(r.flow, fig4Scale, s)
		}
	}

	length := time.Duration(cfg.seconds * float64(time.Second))
	w, err := r.measure(ctx, warmupFor(cfg.seconds), length)
	if err != nil {
		return nil, err
	}
	w.addEndToEnd(rep, setup)
	if cfg.traceDir == "" {
		rep.Correct = rep.Failed == 0
		return rep, nil
	}

	r.tracer = obs.NewTracer("bench", 1, 16)
	r.log = &spanLog{}
	tw, err := r.measure(ctx, warmupFor(cfg.seconds), length)
	if err != nil {
		return nil, err
	}
	rep.countOps(tw.ops)
	addOverhead(rep, w, tw)
	addRuntime(rep, w)
	warn := func(msg string) { fmt.Fprintf(os.Stderr, "bench: fig4-plan: %s\n", msg) }
	if err := planLayers(ctx, rep, r.planner, r.flow, r.binds[r.order[0]], r.log, warn); err != nil {
		return nil, err
	}
	if err := r.log.writeChrome(filepath.Join(cfg.traceDir, "fig4-plan.json")); err != nil {
		return nil, err
	}
	rep.Correct = rep.Failed == 0
	return rep, nil
}

// measure runs plans back to back, one caller, cycling through the binding
// seeds: an untimed warm-up of at least one plan, then the window of at
// least one. Each plan is due when the previous one returned, and its
// skyline is checked against the golden digest.
func (r *fig4Run) measure(ctx context.Context, warmup, length time.Duration) (*window, error) {
	runtime.GC() // every window starts from the same collector state
	w := &window{start: time.Now()}
	w.warmEnd = w.start.Add(warmup)
	w.winEnd = w.warmEnd.Add(length)
	due := w.start
	measuring := false
	// last keeps the latest result alive for the heap measurement, the
	// footprint of one Fig. 4 result in the hands of its caller.
	var last *poiesis.Result
	for due.Before(w.winEnd) || len(w.ops) == 0 {
		if !measuring && !due.Before(w.warmEnd) {
			measuring = true
			w.warmEnd = due
			w.use0 = takeUsage()
		}
		seed := r.order[r.next%len(r.order)]
		r.next++
		s := sample{step: stepPlan, class: classPlan, due: due, sent: time.Now()}
		pctx, root := r.tracer.StartRequest(ctx, "", "fig4-plan")
		res, err := r.planner.PlanContext(pctx, r.flow, r.binds[seed])
		root.End()
		s.done = time.Now()
		if err != nil {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			s.failed = true
			fmt.Fprintf(os.Stderr, "bench: fig4-plan: binding seed %d: %v\n", seed, err)
		} else if g, d := r.golden[fig4GoldenKey(seed)], docOf(res); g.Digest != d.digest() {
			s.failed = true
			fmt.Fprintf(os.Stderr, "bench: fig4-plan: binding seed %d: skyline does not match the golden digest\n", seed)
		}
		if r.log != nil {
			r.log.add(span{name: fmt.Sprintf("plan seed=%d", seed), start: s.due, dur: s.done.Sub(s.due), parent: -1, pid: pidRequests})
		}
		if measuring {
			w.ops = append(w.ops, s)
			w.analystMs = append(w.analystMs, s.latencyMs())
			if res != nil {
				w.alternatives += res.Stats.Evaluated
			}
		}
		due = s.done
		if res != nil {
			last = res
		}
	}
	w.use1 = takeUsage()
	w.wall = due.Sub(w.warmEnd)
	w.heapMB = retainedHeapMB()
	runtime.KeepAlive(last)
	return w, nil
}
