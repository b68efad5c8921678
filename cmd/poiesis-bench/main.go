// Command poiesis-bench is the open-loop load harness for the poiesis
// planning service. It drives a configurable create/plan/select/get/SSE/
// delete mix at a target Poisson arrival rate and reports per-operation
// p50/p95/p99 latencies and error budgets, as a human-readable table on
// stderr and optionally as a JSON array in cmd/benchjson's BENCH_<n>.json
// record format.
//
// Two modes:
//
//	poiesis-bench -url http://host:8080        # against a running `poiesis serve`
//	poiesis-bench -backends memory,disk        # in-process: one run per backend
//
// In-process mode mounts the real service on a real loopback listener per
// backend (fresh temp storage each), so the two session-persistence tiers
// are compared under identical traffic.
//
// Usage:
//
//	poiesis-bench [-qps 50] [-duration 5s] [-mix get=5,plan=3,...] [-seed 1]
//	              [-url URL | -backends LIST] [-out BENCH.json] [-error-budget 0.01]
//
// Records are named "LoadHTTP/<target>/columnar/<op>". The "columnar"
// segment is a constant kept from when the simulation engine was
// selectable, so the report schema and the committed BENCH trajectories
// stay comparable.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"strconv"
	"strings"
	"time"

	"poiesis"
	"poiesis/internal/loadgen"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "poiesis-bench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("poiesis-bench", flag.ContinueOnError)
	url := fs.String("url", "", "target a running service at this base URL (mutually exclusive with -backends)")
	backendsSpec := fs.String("backends", "memory,disk", "in-process mode: comma-separated session backends to compare")
	qps := fs.Float64("qps", 50, "target arrival rate (open-loop Poisson)")
	duration := fs.Duration("duration", 5*time.Second, "arrival window per run")
	mixSpec := fs.String("mix", "", "traffic mix as op=weight[,op=weight...] over create,plan,select,get,sse,delete (empty = default mix)")
	seed := fs.Int64("seed", 1, "arrival-schedule seed (same seed = same schedule)")
	out := fs.String("out", "", "write benchjson-format records to this file ('-' = stdout)")
	budget := fs.Float64("error-budget", 0.01, "fail when any run's error rate exceeds this fraction")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	mix, err := parseMix(*mixSpec)
	if err != nil {
		return err
	}

	type target struct {
		name  string
		url   string
		close func()
	}
	var targets []target
	if *url != "" {
		targets = []target{{name: "remote", url: *url}}
	} else {
		for _, name := range strings.Split(*backendsSpec, ",") {
			name = strings.TrimSpace(name)
			if name == "" {
				continue
			}
			t, err := startBackend(name)
			if err != nil {
				return err
			}
			targets = append(targets, target{name: name, url: t.url, close: t.close})
		}
		if len(targets) == 0 {
			return fmt.Errorf("no backends selected")
		}
	}

	var records []loadgen.Record
	exceeded := false
	for _, tgt := range targets {
		fmt.Fprintf(os.Stderr, "== %s ==\n", tgt.name)
		report, err := loadgen.Run(context.Background(), loadgen.Config{
			BaseURL:  tgt.url,
			QPS:      *qps,
			Duration: *duration,
			Mix:      mix,
			Seed:     *seed,
		})
		if tgt.close != nil {
			tgt.close()
		}
		if err != nil {
			return fmt.Errorf("run against %s: %w", tgt.name, err)
		}
		report.WriteText(os.Stderr)
		records = append(records, report.Records("LoadHTTP/"+tgt.name+"/columnar")...)
		if rate := report.ErrorRate(); rate > *budget {
			fmt.Fprintf(os.Stderr, "error budget exceeded on %s: %.4f > %.4f\n", tgt.name, rate, *budget)
			exceeded = true
		}
	}

	if *out != "" {
		blob, err := json.MarshalIndent(records, "", "  ")
		if err != nil {
			return err
		}
		blob = append(blob, '\n')
		if *out == "-" {
			os.Stdout.Write(blob)
		} else if err := os.WriteFile(*out, blob, 0o644); err != nil {
			return err
		}
	}
	if exceeded {
		return fmt.Errorf("error budget exceeded")
	}
	return nil
}

// parseMix decodes "op=weight,op=weight" into a loadgen.Mix.
func parseMix(spec string) (loadgen.Mix, error) {
	if spec == "" {
		return nil, nil
	}
	valid := map[loadgen.Op]bool{
		loadgen.OpCreate: true, loadgen.OpPlan: true, loadgen.OpSelect: true,
		loadgen.OpGet: true, loadgen.OpSSE: true, loadgen.OpDelete: true,
	}
	mix := loadgen.Mix{}
	for _, part := range strings.Split(spec, ",") {
		kv := strings.SplitN(strings.TrimSpace(part), "=", 2)
		if len(kv) != 2 {
			return nil, fmt.Errorf("bad -mix entry %q (want op=weight)", part)
		}
		op := loadgen.Op(kv[0])
		if !valid[op] {
			return nil, fmt.Errorf("bad -mix op %q", kv[0])
		}
		w, err := strconv.Atoi(kv[1])
		if err != nil || w < 0 {
			return nil, fmt.Errorf("bad -mix weight %q", kv[1])
		}
		mix[op] = w
	}
	return mix, nil
}

type inProcess struct {
	url   string
	close func()
}

// startBackend mounts a fresh service over the named session backend on a
// loopback listener, with temp storage cleaned up on close.
func startBackend(name string) (*inProcess, error) {
	cfg := poiesis.ServerConfig{Logf: func(string, ...any) {}}
	cleanup := func() {}
	switch name {
	case "memory":
	case "disk":
		dir, err := os.MkdirTemp("", "poiesis-bench-disk-")
		if err != nil {
			return nil, err
		}
		backend, err := poiesis.NewDiskSessionBackend(dir)
		if err != nil {
			os.RemoveAll(dir)
			return nil, err
		}
		cfg.Backend = backend
		cleanup = func() { os.RemoveAll(dir) }
	default:
		return nil, fmt.Errorf("unknown backend %q (want memory or disk)", name)
	}
	handler := poiesis.NewServer(cfg)
	srv := httptest.NewServer(handler)
	return &inProcess{
		url: srv.URL,
		close: func() {
			srv.Close()
			handler.Close()
			cleanup()
		},
	}, nil
}
