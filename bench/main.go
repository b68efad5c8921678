// Command bench is the POIESIS benchmark: four workloads that together reach
// every layer of the system — the planner at Fig. 4 scale, the HTTP service
// with cold and with shared plans, and a three-replica cluster — each timed
// end to end, checked for correct answers, and, in a separate traced run,
// broken down layer by layer.
//
// Usage (from the repository root):
//
//	bash bench/run.sh -seed 1                       all four workloads
//	bash bench/run.sh -workload serve-shared -seed 2 -seconds 20
//	bash bench/run.sh -seed 1 -trace traces/        traced run, Chrome traces
//	bash bench/run.sh -seed 1 -out head.json        also write a JSON record
//	bash bench/run.sh -compare base*.json -- head*.json
//
// run.sh builds the binary with its Go cache inside .bench_build; from the
// bench directory `go run . -seed 1` works the same. The last line of
// standard output is one JSON object: correct, attempted, failed and the
// metrics listed in BENCHMARK.json (end-to-end ones, or per-layer ones with
// -trace). See README.md for the workloads, metrics and method.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one invocation's settings.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	// traceDir, when set, makes the run a traced run that writes one Chrome
	// trace per workload there.
	traceDir string
	out      string
}

// defaultTraceDir receives Chrome traces for `-trace 1`.
const defaultTraceDir = ".bench_build/traces"

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "run one workload ("+strings.Join(workloadNames(), ", ")+"); all when empty")
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed for arrival schedules and inputs")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "length of each measured window in seconds")
	trace := fs.String("trace", "0", "traced run: 0 off, 1 on with traces in "+defaultTraceDir+", or a directory for the Chrome traces")
	fs.StringVar(&cfg.out, "out", "", "also write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare result files: -compare BASE.json... -- HEAD.json...")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	switch *trace {
	case "0", "":
	case "1":
		cfg.traceDir = defaultTraceDir
	default:
		cfg.traceDir = *trace
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "bench: unexpected arguments %q\n", fs.Args())
		return 2
	}
	if cfg.seconds <= 0 {
		fmt.Fprintln(stderr, "bench: -seconds must be positive")
		return 2
	}
	if procs, cpus := runtime.GOMAXPROCS(0), runtime.NumCPU(); procs > cpus {
		fmt.Fprintf(stderr, "bench: GOMAXPROCS=%d exceeds the %d CPUs this process may use; refusing to run oversubscribed\n", procs, cpus)
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var reports []*report
	if cfg.workload == "" {
		var err error
		if reports, err = runChildren(ctx, cfg, stdout, stderr); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	} else {
		w, ok := findWorkload(cfg.workload)
		if !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", cfg.workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		rep, err := w.run(ctx, cfg)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		rep.printLines(stdout)
		reports = []*report{rep}
	}
	if cfg.out != "" {
		if err := writeRecord(cfg, reports); err != nil {
			fmt.Fprintf(stderr, "bench: %v\n", err)
			return 1
		}
	}
	last := summarize(reports, cfg.traceDir != "")
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !last.Correct {
		return 1
	}
	return 0
}

// runChildren runs every workload in a fresh child process of this binary,
// one after another, relaying their output lines and collecting their
// reports from the JSON each child writes.
func runChildren(ctx context.Context, cfg config, stdout, stderr io.Writer) ([]*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locating the benchmark binary: %w", err)
	}
	tmp, err := os.MkdirTemp("", "poiesis-bench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	var reports []*report
	for _, w := range workloads {
		out := tmp + "/" + w.name + ".json"
		args := []string{
			"-workload", w.name,
			"-seed", fmt.Sprint(cfg.seed),
			"-seconds", fmt.Sprint(cfg.seconds),
			"-out", out,
		}
		if cfg.traceDir != "" {
			args = append(args, "-trace", cfg.traceDir)
		}
		// A failing child still writes its record; only a missing record
		// is an error here.
		var lines strings.Builder
		cmd := exec.CommandContext(ctx, exe, args...)
		cmd.Stdout, cmd.Stderr = &lines, stderr
		if err := cmd.Run(); err != nil && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		// Every line but the child's JSON summary is relayed as is.
		text := strings.TrimRight(lines.String(), "\n")
		if i := strings.LastIndexByte(text, '\n'); i >= 0 {
			fmt.Fprintln(stdout, text[:i])
		}
		rec, err := readRecord(out)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, rec.Workloads...)
	}
	return reports, nil
}

// summary is the final line of standard output.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]summaryItem `json:"metrics"`
}

type summaryItem struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summarize builds the final line: the metrics listed in BENCHMARK.json —
// per-layer ones for a traced run, end-to-end ones otherwise. With several
// workloads the names are prefixed by the workload.
func summarize(reports []*report, traced bool) summary {
	s := summary{Correct: len(reports) > 0, Metrics: map[string]summaryItem{}}
	for _, r := range reports {
		s.Correct = s.Correct && r.Correct
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, m := range r.Metrics {
			d, _ := metricIndex(m.Name)
			if !d.listed || d.layer != traced {
				continue
			}
			name := m.Name
			if len(reports) > 1 {
				name = r.Workload + "/" + name
			}
			s.Metrics[name] = summaryItem{Value: m.Value, Unit: m.Unit}
		}
	}
	return s
}

// record is the -out file: every metric of every workload run, with the
// conditions it was measured under.
type record struct {
	Seed       uint64    `json:"seed"`
	Seconds    float64   `json:"seconds"`
	Traced     bool      `json:"traced"`
	NProc      int       `json:"nproc"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	GoVersion  string    `json:"goVersion"`
	Workloads  []*report `json:"workloads"`
}

func writeRecord(cfg config, reports []*report) error {
	rec := record{
		Seed:       cfg.seed,
		Seconds:    cfg.seconds,
		Traced:     cfg.traceDir != "",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Workloads:  reports,
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(cfg.out, append(b, '\n'), 0o644); err != nil {
		return fmt.Errorf("writing results: %w", err)
	}
	return nil
}

func readRecord(path string) (*record, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rec record
	if err := json.Unmarshal(b, &rec); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(rec.Workloads) == 0 {
		return nil, errors.New(path + ": no workload results")
	}
	return &rec, nil
}

// report is one workload's outcome.
type report struct {
	Workload  string   `json:"workload"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Metrics   []metric `json:"metrics"`
}

type metric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples"`
}

// add records a metric, taking its unit from the metric table. Undefined
// values (no samples) are skipped rather than reported as zero.
func (r *report) add(name string, value float64, samples int) {
	d, ok := metricIndex(name)
	if !ok {
		panic("bench: metric " + name + " is not in metricDefs")
	}
	if value != value { // NaN: nothing was measured
		return
	}
	r.Metrics = append(r.Metrics, metric{Name: name, Value: value, Unit: d.unit, Samples: samples})
}

// printLines writes one line per metric: workload, name, value, unit and
// sample count.
func (r *report) printLines(w io.Writer) {
	ms := append([]metric(nil), r.Metrics...)
	sort.SliceStable(ms, func(i, j int) bool {
		di, _ := metricIndex(ms[i].Name)
		dj, _ := metricIndex(ms[j].Name)
		return !di.layer && dj.layer
	})
	for _, m := range ms {
		fmt.Fprintf(w, "%-15s %-32s %14.6g %-5s n=%d\n", r.Workload, m.Name, m.Value, m.Unit, m.Samples)
	}
	fmt.Fprintf(w, "%-15s correct=%t attempted=%d failed=%d\n", r.Workload, r.Correct, r.Attempted, r.Failed)
}

// warmupFor is the untimed warm-up before each measured window: a tenth of
// the window, at most three seconds.
func warmupFor(seconds float64) time.Duration {
	d := time.Duration(seconds * float64(time.Second) / 10)
	if d > 3*time.Second {
		d = 3 * time.Second
	}
	return d
}
