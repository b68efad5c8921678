package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"poiesis"
)

// serveRunner returns the runner of a served workload. The run: build the
// service (timed, several times), warm the shared plan keys, measure the
// window, check the served skylines; a traced run then repeats the window
// against a fresh traced service and breaks it down by layer.
func serveRunner(spec serveSpec) func(ctx context.Context, cfg config) (*report, error) {
	return func(ctx context.Context, cfg config) (*report, error) {
		rep := &report{Workload: spec.name}
		golden, err := loadGolden()
		if err != nil {
			return nil, err
		}
		warn := func(msg string) { fmt.Fprintf(os.Stderr, "bench: %s: %s\n", spec.name, msg) }
		dir := ""
		if spec.disk {
			if dir, err = os.MkdirTemp("", "poiesis-bench-sessions-"); err != nil {
				return nil, err
			}
			defer os.RemoveAll(dir)
			if err := seedDisk(dir, cfg.seed); err != nil {
				return nil, fmt.Errorf("seeding the disk backend: %w", err)
			}
		}
		warmup := warmupFor(cfg.seconds)
		length := time.Duration(cfg.seconds * float64(time.Second))
		sched := schedule(spec, cfg.seed, warmup, length)

		svc, setup, err := setupService(ctx, spec, dir, setupReps(spec), false, nil)
		if err != nil {
			return nil, err
		}
		r := &serveRun{spec: spec, seed: cfg.seed, cl: newClient(svc.urls, false)}
		w, err := r.window(ctx, rep, sched, warmup, length, golden, warn)
		r.cl.close()
		svc.close()
		if err != nil {
			return nil, err
		}
		w.addEndToEnd(rep, setup)
		if lag := percentile(w.lagsMs, 99); lag > 5 {
			warn(fmt.Sprintf("warning: the arrival generator ran %.1f ms late at p99; the load was not the scheduled load", lag))
		}
		if cfg.traceDir != "" {
			if err := tracedServe(ctx, rep, spec, cfg, dir, sched, w, golden, warn); err != nil {
				return nil, err
			}
		}
		rep.Correct = rep.Failed == 0
		return rep, nil
	}
}

// window warms the shared plan keys, measures one window and checks the
// skylines served to the checked analysts, warm-up analysts included.
func (r *serveRun) window(ctx context.Context, rep *report, sched []analystSpec, warmup, length time.Duration,
	golden map[string]goldenEntry, warn func(string)) (*window, error) {
	warm, err := r.warmKeys(ctx)
	if err != nil {
		return nil, err
	}
	w, err := r.measure(ctx, sched, warmup, length)
	if err != nil {
		return nil, err
	}
	checked, failed, problems := checkServed(r.spec, append(warm, w.results...), golden)
	rep.Attempted += checked
	rep.Failed += failed
	for _, p := range problems {
		warn(p)
	}
	return w, nil
}

// warmKeys runs, untimed, one analyst per shared key on every replica, so
// the window finds every shared plan — before and after selecting design 0
// — in each replica's own cache. Their replies are checked like those of
// the window's analysts.
func (r *serveRun) warmKeys(ctx context.Context) ([]scriptResult, error) {
	if r.spec.freshEvery == 1 {
		return nil, nil
	}
	var out []scriptResult
	for replica := range r.cl.urls {
		pinned := *r
		pinned.spec.replicas = 1
		cl := *r.cl
		cl.urls = r.cl.urls[replica : replica+1]
		pinned.cl = &cl
		for i, k := range sharedKeys() {
			a := analystSpec{index: -1 - i, flow: k.flow, seed: k.seed, check: true}
			res := pinned.analyst(ctx, a, time.Now())
			if !res.complete {
				return nil, fmt.Errorf("warming plan key %s seed %d on replica %d failed", k.flow, k.seed, replica)
			}
			out = append(out, res)
		}
	}
	return out, ctx.Err()
}

// tracedServe is the traced run of a served workload: the same schedule
// against a fresh service that records spans for every request and times
// every backend call, then the layer breakdown and the Chrome trace.
func tracedServe(ctx context.Context, rep *report, spec serveSpec, cfg config, dir string, sched []analystSpec,
	plain *window, golden map[string]goldenEntry, warn func(string)) error {
	log := &spanLog{}
	if err := tracedWindow(ctx, rep, spec, cfg, dir, sched, plain, golden, warn, log); err != nil {
		return err
	}
	// The planner layers of this workload's plans: one plan of the first
	// analyst's inputs, replayed once the service is gone, so its heap does
	// not charge collection work to the one-CPU plans.
	a := sched[0]
	doc, err := poiesis.ParseConfig([]byte(spec.doc))
	if err != nil {
		return err
	}
	p, err := poiesis.PlannerFromConfig(doc)
	if err != nil {
		return err
	}
	g, _ := poiesis.BuiltinFlow(a.flow)
	if err := planLayers(ctx, rep, p, g, poiesis.AutoBinding(g, spec.scale, a.seed), log, warn); err != nil {
		return err
	}
	return log.writeChrome(filepath.Join(cfg.traceDir, spec.name+".json"))
}

// tracedWindow measures the traced window and records the service's layer
// metrics.
func tracedWindow(ctx context.Context, rep *report, spec serveSpec, cfg config, dir string, sched []analystSpec,
	plain *window, golden map[string]goldenEntry, warn func(string), log *spanLog) error {
	store := &storeLog{}
	svc, _, err := setupService(ctx, spec, dir, 1, true, store)
	if err != nil {
		return err
	}
	defer svc.close()
	r := &serveRun{spec: spec, seed: cfg.seed, cl: newClient(svc.urls, true)}
	defer r.cl.close()
	st0, err := r.stats(ctx)
	if err != nil {
		return err
	}
	tw, err := r.window(ctx, rep, sched, warmupFor(cfg.seconds), time.Duration(cfg.seconds*float64(time.Second)), golden, warn)
	if err != nil {
		return err
	}
	st1, err := r.stats(ctx)
	if err != nil {
		return err
	}
	rep.countOps(tw.ops)
	addOverhead(rep, plain, tw)
	addRuntime(rep, plain)
	return serveLayers(ctx, rep, r, svc, plain, tw, store, st0, st1, log)
}
