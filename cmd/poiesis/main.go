// Command poiesis is the command-line interface of the POIESIS ETL redesign
// tool. It loads an ETL flow from xLM or PDI (or one of the built-in demo
// flows), generates alternative designs by weaving Flow Component Patterns
// into it, estimates quality measures for every alternative, and prints the
// Pareto frontier together with the Fig. 4 scatter plot and Fig. 5
// relative-change bars.
//
// Subcommands:
//
//	patterns                      list the pattern palette (Fig. 6)
//	measures  -in FLOW            estimate measures for one flow
//	plan      -in FLOW [flags]    generate alternatives, print the skyline
//	convert   -in FLOW -out FILE  convert between xLM and .ktr
//	export    -in FLOW -out FILE  export to .dot or .json
//	session   -in FLOW [flags]    interactive explore/select loop
//	serve     [-addr HOST:PORT]   multi-session HTTP planning service
//	version                       print build version and VCS revision
//
// FLOW is a path ending in .xlm or .ktr, or one of the built-in names
// tpcds-purchases, tpcds-sales, tpcds-inventory, tpch-revenue,
// tpch-pricing.
//
// The process exits 0 on success, 1 on runtime failures and 2 on usage
// errors (bad flags or arguments), so scripts can tell misuse from genuine
// failures.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"

	"poiesis"
)

// Exit codes: scripts can distinguish misuse from genuine failures.
const (
	exitRuntime = 1 // the command ran and failed
	exitUsage   = 2 // bad arguments or flags
)

// usageError marks a command-line usage mistake, as opposed to a runtime
// failure; fatal exits 2 for the former and 1 for the latter.
type usageError struct{ err error }

func (u usageError) Error() string { return u.err.Error() }
func (u usageError) Unwrap() error { return u.err }

// usagef builds a usage error.
func usagef(format string, args ...any) error {
	return usageError{fmt.Errorf(format, args...)}
}

// fatal is the single error exit path of the CLI: every command's error
// funnels through here instead of ad-hoc Fprintln+Exit sites.
func fatal(err error) {
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	code := exitRuntime
	var ue usageError
	if errors.As(err, &ue) {
		code = exitUsage
	}
	fmt.Fprintln(os.Stderr, "poiesis:", err)
	os.Exit(code)
}

// parseFlags parses args, classifying flag mistakes as usage errors and
// keeping -h/--help working (the flag set prints its defaults, fatal exits
// 0 via flag.ErrHelp). Output is suppressed during Parse only so the error
// is not printed twice — once here, once by fatal — but bad flags still get
// the defaults listing.
func parseFlags(fs *flag.FlagSet, args []string) error {
	fs.SetOutput(io.Discard)
	err := fs.Parse(args)
	if err == nil {
		return nil
	}
	fs.SetOutput(os.Stderr)
	fs.Usage()
	if errors.Is(err, flag.ErrHelp) {
		return flag.ErrHelp
	}
	return usageError{err}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(exitUsage)
	}
	var err error
	switch os.Args[1] {
	case "patterns":
		err = cmdPatterns(os.Args[2:])
	case "measures":
		err = cmdMeasures(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:], os.Stdout)
	case "convert":
		err = cmdConvert(os.Args[2:])
	case "export":
		err = cmdExport(os.Args[2:])
	case "session":
		err = cmdSession(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "version", "-version", "--version":
		err = cmdVersion()
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		err = usagef("unknown command %q", os.Args[1])
	}
	if err != nil {
		fatal(err)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: poiesis <command> [flags]

commands:
  patterns                     list the Flow Component Pattern palette
  measures -in FLOW            estimate quality measures for a flow
  plan     -in FLOW [flags]    generate alternatives and print the skyline
  convert  -in FLOW -out FILE  convert between .xlm and .ktr
  export   -in FLOW -out FILE  export to .dot (Graphviz) or .json
  session  -in FLOW [flags]    interactive explore/select loop (stdin-driven)
  serve    [-addr HOST:PORT]   HTTP planning service (multi-session API)
  version                      print build version and VCS revision

FLOW: a .xlm or .ktr file, or one of tpcds-purchases | tpcds-sales |
tpcds-inventory | tpch-revenue | tpch-pricing

exit status: 0 on success, 1 on runtime failure, 2 on usage errors
`)
}

// withInterrupt runs fn with a context that Ctrl-C cancels, so long-running
// pipelines drain gracefully instead of the process dying mid-write. The
// handler is unregistered on the first signal, restoring default handling so
// a second Ctrl-C force-quits a slow drain.
func withInterrupt(fn func(ctx context.Context) error) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
	}()
	return fn(ctx)
}

// loadFlow resolves a FLOW argument: built-in name or file path by extension.
func loadFlow(arg string) (*poiesis.Graph, error) {
	if g, ok := poiesis.BuiltinFlow(arg); ok {
		return g, nil
	}
	switch {
	case strings.HasSuffix(arg, ".xlm") || strings.HasSuffix(arg, ".xml"):
		return poiesis.LoadXLM(arg)
	case strings.HasSuffix(arg, ".ktr"):
		return poiesis.LoadPDI(arg)
	default:
		return nil, usagef("cannot infer format of %q (want .xlm, .ktr or a built-in name)", arg)
	}
}

func cmdPatterns(args []string) error {
	fs := flag.NewFlagSet("patterns", flag.ContinueOnError)
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	reg := poiesis.DefaultPatterns()
	fmt.Println("Available Flow Component Patterns (Fig. 6):")
	fmt.Println()
	fmt.Printf("  %-28s %-8s %s\n", "FCP", "applies", "related quality attribute")
	fmt.Printf("  %-28s %-8s %s\n", strings.Repeat("-", 28), "-------", strings.Repeat("-", 25))
	for _, name := range reg.Names() {
		p, _ := reg.Get(name)
		fmt.Printf("  %-28s %-8s %s\n", p.Name(), p.Kind(), p.Improves())
	}
	return nil
}

func cmdMeasures(args []string) error {
	fs := flag.NewFlagSet("measures", flag.ContinueOnError)
	in := fs.String("in", "", "flow to analyse (.xlm/.ktr/built-in)")
	scale := fs.Int("scale", 5000, "source cardinality for the simulation")
	seed := fs.Uint64("seed", 1, "random seed")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("measures: -in required")
	}
	g, err := loadFlow(*in)
	if err != nil {
		return err
	}
	report, bottlenecks, err := poiesis.EvaluateFlow(g, poiesis.AutoBinding(g, *scale, *seed), poiesis.SimConfig{})
	if err != nil {
		return err
	}
	fmt.Print(report.String())
	fmt.Println("\nbottleneck operations (mean over simulated runs):")
	fmt.Printf("  %-28s %-12s %10s %10s %8s %s\n", "operation", "kind", "busy ms", "rows in", "share", "failures")
	for i, op := range bottlenecks {
		if i == 8 {
			break
		}
		fmt.Printf("  %-28s %-12s %10.2f %10.0f %7.1f%% %8d\n",
			op.Node, op.Kind, op.MeanTimeMs, op.MeanRowsIn, 100*op.TimeShare, op.Failures)
	}
	return nil
}

func cmdPlan(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("plan", flag.ContinueOnError)
	in := fs.String("in", "", "initial flow (.xlm/.ktr/built-in)")
	depth := fs.Int("depth", 2, "pattern-combination depth")
	maxAlts := fs.Int("max", 2000, "cap on generated alternatives")
	scale := fs.Int("scale", 2000, "source cardinality for the simulation")
	seed := fs.Uint64("seed", 1, "random seed")
	topK := fs.Int("topk", 3, "greedy policy: best points per pattern")
	exhaustive := fs.Bool("exhaustive", false, "use the exhaustive policy")
	palette := fs.String("palette", "", "comma-separated pattern subset (default all)")
	configPath := fs.String("config", "", "JSON configuration document (overrides other flags)")
	svg := fs.String("svg", "", "write the Fig. 4 scatter to this SVG file")
	xlmOut := fs.String("select", "", "write the best-utility design to this .xlm file")
	bars := fs.Bool("bars", true, "print Fig. 5 relative-change bars for the best design")
	progress := fs.Bool("progress", false, "stream per-alternative progress to stderr")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("plan: -in required")
	}
	g, err := loadFlow(*in)
	if err != nil {
		return err
	}
	var planner *poiesis.Planner
	if *configPath != "" {
		doc, err := poiesis.LoadConfig(*configPath)
		if err != nil {
			return err
		}
		planner, err = poiesis.PlannerFromConfig(doc)
		if err != nil {
			return err
		}
	} else {
		opts := poiesis.Options{
			Depth:           *depth,
			MaxAlternatives: *maxAlts,
		}
		if *exhaustive {
			opts.Policy = poiesis.ExhaustivePolicy{}
		} else {
			opts.Policy = poiesis.GreedyPolicy{TopK: *topK}
		}
		if *palette != "" {
			opts.Palette = strings.Split(*palette, ",")
		}
		planner = poiesis.NewPlanner(nil, opts)
	}
	if *progress {
		planner.WithProgress(func(e poiesis.ProgressEvent) {
			// \x1b[K clears to end of line: counters can shrink (a frontier
			// eviction drops SkylineSize), leaving stale trailing characters.
			fmt.Fprintf(os.Stderr, "\rplanning: %d generated, %d evaluated, %d kept, %d on the frontier\x1b[K",
				e.Generated, e.Evaluated, e.Kept, e.SkylineSize)
		})
	}
	var res *poiesis.Result
	err = withInterrupt(func(ctx context.Context) error {
		var perr error
		res, perr = planner.PlanContext(ctx, g, poiesis.AutoBinding(g, *scale, *seed))
		return perr
	})
	if *progress {
		fmt.Fprintln(os.Stderr)
	}
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "flow %q: %d nodes, %d edges\n", g.Name, g.Len(), g.EdgeCount())
	fmt.Fprintf(w, "generated %d designs (%d duplicates removed, %d statically pruned, %d evaluated, %d constraint-rejected)\n",
		res.Stats.Generated, res.Stats.Deduped, res.Stats.StaticPruned, res.Stats.Evaluated, res.Stats.ConstraintRejected)
	fmt.Fprintf(w, "skyline: %d of %d alternatives\n\n", len(res.SkylineIdx), len(res.Alternatives))

	fmt.Fprint(w, poiesis.RenderScatterASCII(res, poiesis.ScatterOptions{
		Title: "Alternative ETL flows (Fig. 4)",
	}))
	fmt.Fprintln(w)

	// Skyline table, best utility first under equal goals.
	goals := poiesis.NewGoals(map[poiesis.Characteristic]float64{
		poiesis.Performance: 1, poiesis.DataQuality: 1, poiesis.Reliability: 1,
	})
	type row struct {
		label   string
		utility float64
		scores  []float64
	}
	var rows []row
	for _, a := range res.Skyline() {
		rows = append(rows, row{
			label:   a.Label(),
			utility: goals.Utility(a.Report),
			scores:  a.Report.Vector(res.Dims),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].utility > rows[j].utility })
	fmt.Fprintf(w, "%-70s %10s %10s %10s\n", "skyline design", "perf", "dq", "rel")
	for _, r := range rows {
		fmt.Fprintf(w, "%-70s %10.4f %10.4f %10.4f\n", clip(r.label, 70), r.scores[0], r.scores[1], r.scores[2])
	}

	fmt.Fprintln(w, "\nwhy each design is on the frontier:")
	for _, e := range poiesis.ExplainSkyline(res) {
		fmt.Fprintf(w, "  %s\n", e)
	}

	fmt.Fprintln(w, "\npattern usage (skyline presence first):")
	for _, u := range poiesis.AnalyzePatternUsage(res) {
		fmt.Fprintf(w, "  %-26s %4d applications, %2d in skyline designs\n",
			u.Pattern, u.Applications, u.InSkyline)
	}

	best := res.Best(goals)
	fmt.Fprintf(w, "\nbest design by equal-weight goals: %s\n", best.Label())
	if *bars && best.Report != res.Initial.Report {
		fmt.Fprintln(w, "\nrelative change vs initial flow (Fig. 5):")
		fmt.Fprint(w, poiesis.RenderRelativeBars(best, res, map[string]bool{"*": true}))
	}
	if *svg != "" {
		doc := poiesis.RenderScatterSVG(res, poiesis.ScatterOptions{Title: "Alternative ETL flows"})
		if err := os.WriteFile(*svg, []byte(doc), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "\nwrote %s\n", *svg)
	}
	if *xlmOut != "" {
		if err := poiesis.SaveXLM(*xlmOut, best.Graph); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %s\n", *xlmOut)
	}
	return nil
}

func cmdConvert(args []string) error {
	fs := flag.NewFlagSet("convert", flag.ContinueOnError)
	in := fs.String("in", "", "input flow (.xlm/.ktr/built-in)")
	out := fs.String("out", "", "output file (.xlm or .ktr)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return usagef("convert: -in and -out required")
	}
	g, err := loadFlow(*in)
	if err != nil {
		return err
	}
	var b []byte
	switch {
	case strings.HasSuffix(*out, ".xlm") || strings.HasSuffix(*out, ".xml"):
		b, err = poiesis.EncodeXLM(g)
	case strings.HasSuffix(*out, ".ktr"):
		b, err = poiesis.EncodePDI(g)
	default:
		return usagef("convert: cannot infer format of %q", *out)
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d nodes, %d edges)\n", *out, g.Len(), g.EdgeCount())
	return nil
}

func cmdExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ContinueOnError)
	in := fs.String("in", "", "input flow (.xlm/.ktr/built-in)")
	out := fs.String("out", "", "output file (.dot or .json)")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" || *out == "" {
		return usagef("export: -in and -out required")
	}
	g, err := loadFlow(*in)
	if err != nil {
		return err
	}
	var b []byte
	switch {
	case strings.HasSuffix(*out, ".dot"):
		b = []byte(poiesis.ExportDOT(g))
	case strings.HasSuffix(*out, ".json"):
		b, err = poiesis.EncodeJSON(g)
	default:
		return usagef("export: cannot infer format of %q (want .dot or .json)", *out)
	}
	if err != nil {
		return err
	}
	if err := os.WriteFile(*out, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(b))
	return nil
}

// cmdVersion prints the build identity the binary can know about itself:
// the module version and the VCS revision stamped by the Go toolchain
// (both "unknown" for a bare `go build` of a dirty tree). The same fields
// appear in GET /v1/healthz and the poiesis_build_info metric, so an
// operator can match a running replica to a binary on disk.
func cmdVersion() error {
	version, revision := poiesis.BuildInfo()
	fmt.Printf("poiesis %s (revision %s)\n", version, revision)
	return nil
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n-3] + "..."
}
