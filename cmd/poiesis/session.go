package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"poiesis"
)

// cmdSession runs the interactive redesign loop of the demo (P1): the user
// explores the alternative space, inspects skyline designs and their
// measures, drills into composite measures, and selects designs across
// iterations. Commands are read from stdin so the session is scriptable.
func cmdSession(args []string) error {
	fs := flag.NewFlagSet("session", flag.ContinueOnError)
	in := fs.String("in", "", "initial flow (.xlm/.ktr/built-in)")
	scale := fs.Int("scale", 1000, "source cardinality for the simulation")
	seed := fs.Uint64("seed", 1, "random seed")
	depth := fs.Int("depth", 1, "pattern-combination depth per iteration")
	topK := fs.Int("topk", 2, "greedy policy: best points per pattern")
	configPath := fs.String("config", "", "JSON configuration document")
	progress := fs.Bool("progress", false, "stream per-alternative progress to stderr during explore")
	if err := parseFlags(fs, args); err != nil {
		return err
	}
	if *in == "" {
		return usagef("session: -in required")
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
		if planner, err = poiesis.PlannerFromConfig(doc); err != nil {
			return err
		}
	} else {
		planner = poiesis.NewPlanner(nil, poiesis.Options{
			Policy: poiesis.GreedyPolicy{TopK: *topK},
			Depth:  *depth,
		})
	}
	// The \r-progress line must be terminated before the REPL prints the
	// exploration outcome, or stdout overprints the leftover stderr line.
	endProgressLine := func() {}
	if *progress {
		planner.WithProgress(func(e poiesis.ProgressEvent) {
			fmt.Fprintf(os.Stderr, "\rexploring: %d generated, %d evaluated, %d on the frontier\x1b[K",
				e.Generated, e.Evaluated, e.SkylineSize)
		})
		endProgressLine = func() { fmt.Fprintln(os.Stderr) }
	}
	session := poiesis.NewSession(planner, g, poiesis.AutoBinding(g, *scale, *seed))
	return runSession(session, os.Stdin, os.Stdout, endProgressLine)
}

// runSession drives the command loop; split out for testability.
// endProgressLine is invoked after every exploration to terminate a live
// progress line; nil means no-op.
func runSession(session *poiesis.Session, in io.Reader, out io.Writer, endProgressLine func()) error {
	if endProgressLine == nil {
		endProgressLine = func() {}
	}
	fmt.Fprintln(out, "poiesis session — commands: explore | show N | bars N | select N | history | quit")
	var last *poiesis.Result
	scanner := bufio.NewScanner(in)
	prompt := func() { fmt.Fprint(out, "> ") }
	prompt()
	for scanner.Scan() {
		fields := strings.Fields(scanner.Text())
		if len(fields) == 0 {
			prompt()
			continue
		}
		cmd := fields[0]
		arg := -1
		if len(fields) > 1 {
			if n, err := strconv.Atoi(fields[1]); err == nil {
				arg = n
			}
		}
		switch cmd {
		case "explore":
			// Ctrl-C aborts the exploration but keeps the session alive: the
			// planner drains its pipeline and the current design is untouched.
			var res *poiesis.Result
			err := withInterrupt(func(ctx context.Context) error {
				var eerr error
				res, eerr = session.ExploreContext(ctx)
				return eerr
			})
			endProgressLine()
			if errors.Is(err, context.Canceled) {
				fmt.Fprintln(out, "exploration cancelled")
				prompt()
				continue
			}
			if err != nil {
				return err
			}
			last = res
			fmt.Fprintf(out, "%d alternatives, %d on the skyline\n",
				len(res.Alternatives), len(res.SkylineIdx))
			fmt.Fprint(out, poiesis.RenderScatterASCII(res, poiesis.ScatterOptions{
				Title: "Alternative ETL flows",
			}))
			for i, alt := range res.Skyline() {
				fmt.Fprintf(out, "  [%d] %s\n", i, alt.Label())
			}

		case "show":
			alt, ok := pickSkyline(out, last, arg)
			if !ok {
				break
			}
			fmt.Fprint(out, alt.Graph.String())
			fmt.Fprint(out, alt.Report.String())

		case "bars":
			alt, ok := pickSkyline(out, last, arg)
			if !ok {
				break
			}
			fmt.Fprint(out, poiesis.RenderRelativeBars(alt, last, map[string]bool{"*": true}))

		case "select":
			if last == nil {
				fmt.Fprintln(out, "explore first")
				break
			}
			alt, err := session.Select(arg)
			if err != nil {
				fmt.Fprintln(out, "error:", err)
				break
			}
			last = nil
			fmt.Fprintf(out, "selected %s; the design is now the current process (%d operations)\n",
				alt.Label(), alt.Graph.Len())

		case "history":
			for _, rec := range session.History() {
				fmt.Fprintf(out, "  #%d %s (mean skyline score %.4f -> %.4f)\n",
					rec.Iteration, rec.Label, rec.ScoreBefore, rec.ScoreAfter)
			}

		case "quit", "exit":
			fmt.Fprintln(out, "bye")
			return nil

		default:
			fmt.Fprintf(out, "unknown command %q\n", cmd)
		}
		prompt()
	}
	return scanner.Err()
}

func pickSkyline(out io.Writer, last *poiesis.Result, idx int) (*poiesis.Alternative, bool) {
	if last == nil {
		fmt.Fprintln(out, "explore first")
		return nil, false
	}
	sky := last.Skyline()
	if idx < 0 || idx >= len(sky) {
		fmt.Fprintf(out, "index out of range [0,%d)\n", len(sky))
		return nil, false
	}
	return sky[idx], true
}
