// Command benchjson converts `go test -bench` output on stdin into a JSON
// array of benchmark records on stdout, so CI can persist benchstat-
// comparable numbers (name, ns/op, B/op, allocs/op plus custom metrics) as
// an artifact — BENCH_<n>.json — and the performance trajectory of the
// planner stays visible across PRs.
//
// Usage:
//
//	go test -run xxx -bench 'Fig3|Fig4|A5' -benchmem -count=1 . | go run ./cmd/benchjson > BENCH.json
//	go run ./cmd/benchjson -check-metrics metrics.txt
//	go run ./cmd/benchjson -check-trace trace.json
//
// The -check-metrics mode parses a saved /metrics scrape with the service's
// own strict exposition parser and requires the core poiesis_* families to
// be present, so CI catches a scrape that serves but has gone syntactically
// or structurally bad.
//
// The -check-trace mode validates a saved GET /v1/traces/{id} document: one
// consistent trace ID, a single root span, resolvable parent links, and at
// least three child layers under the root — the tree a healthy instrumented
// plan request always produces (http → planner → alternative → sim).
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"

	"poiesis/internal/obs"
)

// Record is one benchmark result line.
type Record struct {
	Name        string             `json:"name"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_op"`
	BytesPerOp  float64            `json:"b_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "-check-metrics" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -check-metrics METRICS.txt")
			os.Exit(2)
		}
		if err := checkMetrics(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		fmt.Fprintln(os.Stderr, "benchjson: metrics exposition OK")
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "-check-trace" {
		if len(os.Args) != 3 {
			fmt.Fprintln(os.Stderr, "usage: benchjson -check-trace TRACE.json")
			os.Exit(2)
		}
		if err := checkTrace(os.Args[2]); err != nil {
			fmt.Fprintln(os.Stderr, "benchjson:", err)
			os.Exit(1)
		}
		return
	}
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	out := []Record{}
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		rec, ok := parseLine(line)
		if ok {
			out = append(out, rec)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	// No parseable result lines means the bench run produced nothing — fail
	// loudly (after emitting a valid empty array) so CI cannot publish a
	// hollow trajectory artifact with a green check.
	if len(out) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark result lines on stdin")
		os.Exit(1)
	}
}

// parseLine decodes one result line of the standard bench output format:
//
//	BenchmarkName/sub-8   	     100	  12345 ns/op	  678 B/op	  9 allocs/op	  4096 alternatives
func parseLine(line string) (Record, bool) {
	fields := strings.Fields(line)
	if len(fields) < 4 {
		return Record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Record{}, false
	}
	rec := Record{Name: fields[0], Iterations: iters, Metrics: map[string]float64{}}
	// The remainder alternates value / unit.
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Record{}, false
		}
		switch unit := fields[i+1]; unit {
		case "ns/op":
			rec.NsPerOp = v
		case "B/op":
			rec.BytesPerOp = v
		case "allocs/op":
			rec.AllocsPerOp = v
		default:
			rec.Metrics[unit] = v
		}
	}
	if len(rec.Metrics) == 0 {
		rec.Metrics = nil
	}
	return rec, rec.NsPerOp > 0
}

// checkMetrics validates a saved /metrics scrape: it must parse under the
// strict exposition grammar and contain the core metric families a healthy
// service always exports after serving one plan.
func checkMetrics(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	samples, err := obs.ParseText(f)
	if err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	seen := map[string]bool{}
	for _, s := range samples {
		seen[s.Name] = true
	}
	var missing []string
	for _, want := range []string{
		"poiesis_http_requests_total",
		"poiesis_http_request_duration_seconds_count",
		"poiesis_plans_computed_total",
		"poiesis_plan_cache_misses_total",
		"poiesis_backend_op_duration_seconds_count",
		"poiesis_sessions",
		"poiesis_build_info",
	} {
		if !seen[want] {
			missing = append(missing, want)
		}
	}
	if len(missing) > 0 {
		return fmt.Errorf("%s: %d samples parsed but required families missing: %s",
			path, len(samples), strings.Join(missing, ", "))
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d samples across %d metric names\n", len(samples), len(seen))
	return nil
}

// checkTrace validates a saved /v1/traces/{id} span-tree document. The
// shape requirements mirror what one instrumented plan request must always
// produce: every span carries the document's trace ID, parent links resolve
// within the trace, exactly one span is the root, and the tree is at least
// four layers deep (root plus three child layers).
func checkTrace(path string) error {
	blob, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		ID    string `json:"id"`
		Root  string `json:"root"`
		Spans []struct {
			TraceID  string `json:"traceId"`
			SpanID   string `json:"spanId"`
			ParentID string `json:"parentId"`
			Name     string `json:"name"`
			Service  string `json:"service"`
		} `json:"spans"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if doc.ID == "" || len(doc.Spans) == 0 {
		return fmt.Errorf("%s: not a trace document (id %q, %d spans)", path, doc.ID, len(doc.Spans))
	}
	parent := map[string]string{}
	services := map[string]bool{}
	roots := 0
	for _, sp := range doc.Spans {
		if sp.TraceID != doc.ID {
			return fmt.Errorf("%s: span %s (%s) carries trace %s, want %s", path, sp.SpanID, sp.Name, sp.TraceID, doc.ID)
		}
		parent[sp.SpanID] = sp.ParentID
		services[sp.Service] = true
	}
	for _, sp := range doc.Spans {
		if sp.ParentID == "" {
			roots++
		} else if _, ok := parent[sp.ParentID]; !ok {
			return fmt.Errorf("%s: span %s (%s) has unresolved parent %s", path, sp.SpanID, sp.Name, sp.ParentID)
		}
	}
	if roots != 1 {
		return fmt.Errorf("%s: %d root spans, want exactly 1", path, roots)
	}
	// Depth is the longest parent chain; the chain length is bounded by the
	// span count, so a corrupt parent cycle also fails here.
	depth := 0
	for _, sp := range doc.Spans {
		d, id := 1, sp.SpanID
		for parent[id] != "" && d <= len(doc.Spans) {
			id = parent[id]
			d++
		}
		if d > len(doc.Spans) {
			return fmt.Errorf("%s: parent cycle through span %s", path, sp.SpanID)
		}
		if d > depth {
			depth = d
		}
	}
	const wantDepth = 4 // root + three child layers
	if depth < wantDepth {
		return fmt.Errorf("%s: span tree depth %d, want >= %d (root %q, %d spans)", path, depth, wantDepth, doc.Root, len(doc.Spans))
	}
	fmt.Fprintf(os.Stderr, "benchjson: trace %s OK: root %q, %d spans, depth %d, %d service(s)\n",
		doc.ID, doc.Root, len(doc.Spans), depth, len(services))
	return nil
}
