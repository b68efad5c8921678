// Package poiesis is the public API of the POIESIS reproduction: a tool for
// quality-aware ETL process redesign (Theodorou, Abelló, Thiele, Lehner —
// EDBT 2015).
//
// POIESIS takes an initial ETL flow (imported from xLM or PDI, or built with
// the Builder), automatically generates alternative flows by adding Flow
// Component Patterns at valid application points in varying positions and
// combinations, estimates quality measures (performance, data quality,
// manageability, reliability, cost) for every alternative, and presents the
// Pareto frontier so an analyst can iteratively select and integrate
// redesigns.
//
// Quickstart:
//
//	flow := poiesis.TPCDSPurchases()
//	planner := poiesis.NewPlanner(nil, poiesis.Options{})
//	result, err := planner.Plan(flow, poiesis.AutoBinding(flow, 5000, 1))
//	for _, alt := range result.Skyline() { fmt.Println(alt.Label()) }
//
// Planning runs as a concurrent streaming pipeline: pattern application
// feeds a bounded channel, the evaluation worker pool consumes alternatives
// as they are generated, constraints filter in-stream, and the Pareto
// frontier is maintained incrementally. Each alternative is simulated on a
// columnar engine that re-executes only the part of the flow its pattern
// application changed. Long runs can be cancelled mid-flight with
// Planner.PlanContext (or Session.ExploreContext), and Options.Progress —
// also installable late via Planner.WithProgress — receives one ProgressEvent
// per alternative as the pipeline processes it.
package poiesis

import (
	"fmt"
	"os"

	"poiesis/internal/cluster"
	"poiesis/internal/config"
	"poiesis/internal/core"
	"poiesis/internal/data"
	"poiesis/internal/etl"
	"poiesis/internal/fcp"
	"poiesis/internal/measures"
	"poiesis/internal/obs"
	"poiesis/internal/pdi"
	"poiesis/internal/policy"
	"poiesis/internal/server"
	"poiesis/internal/sim"
	"poiesis/internal/tpcds"
	"poiesis/internal/tpch"
	"poiesis/internal/trace"
	"poiesis/internal/viz"
	"poiesis/internal/workloads"
	"poiesis/internal/xlm"
)

// Flow model ---------------------------------------------------------------

// Graph is an ETL process flow: a DAG of operations connected by transitions.
type Graph = etl.Graph

// Node is one ETL flow operation.
type Node = etl.Node

// NodeID identifies a node within a flow.
type NodeID = etl.NodeID

// Schema is the attribute schema of a rowset.
type Schema = etl.Schema

// Attribute is one schema attribute.
type Attribute = etl.Attribute

// Builder assembles flows fluently.
type Builder = etl.Builder

// NewFlow creates an empty flow graph.
func NewFlow(name string) *Graph { return etl.New(name) }

// NewBuilder starts a flow builder.
func NewBuilder(name string) *Builder { return etl.NewBuilder(name) }

// Patterns ------------------------------------------------------------------

// Pattern is a Flow Component Pattern.
type Pattern = fcp.Pattern

// PatternRegistry is the repository of available patterns.
type PatternRegistry = fcp.Registry

// CustomPatternSpec declares a user-defined pattern (demo part P3).
type CustomPatternSpec = fcp.CustomSpec

// DefaultPatterns returns the registry with the Fig. 6 palette
// (RemoveDuplicateEntries, FilterNullValues, CrosscheckSources,
// ParallelizeTask, AddCheckpoint) plus the graph-wide management patterns.
func DefaultPatterns() *PatternRegistry { return fcp.DefaultRegistry() }

// NewCustomPattern builds a pattern from a declarative spec.
func NewCustomPattern(spec CustomPatternSpec) (Pattern, error) {
	return fcp.NewCustomPattern(spec)
}

// Planning ------------------------------------------------------------------

// Options configures a planning run.
type Options = core.Options

// Planner generates and evaluates alternative designs.
type Planner = core.Planner

// Result is the outcome of one planning run.
type Result = core.Result

// Alternative is one generated design.
type Alternative = core.Alternative

// Session drives the iterative explore-select loop.
type Session = core.Session

// ProgressEvent is delivered to Options.Progress once per alternative as the
// pipeline finishes processing it.
type ProgressEvent = core.ProgressEvent

// Binding connects extract operations to synthetic sources.
type Binding = sim.Binding

// SourceSpec describes one synthetic source.
type SourceSpec = data.SourceSpec

// Defects configures injected data-quality defects.
type Defects = data.Defects

// SimConfig tunes the execution engine.
type SimConfig = sim.Config

// NewPlanner builds a planner; a nil registry uses DefaultPatterns().
func NewPlanner(reg *PatternRegistry, opts Options) *Planner {
	return core.NewPlanner(reg, opts)
}

// NewSession starts an iterative redesign session. Sessions are safe for
// concurrent use: explorations serialize against Select, and a second
// operation issued while an exploration is in flight fails fast with
// ErrSessionBusy (see core.Session's concurrency contract).
func NewSession(p *Planner, initial *Graph, bind Binding) *Session {
	return core.NewSession(p, initial, bind)
}

// ErrSessionBusy is returned by Session operations rejected because an
// exploration is in flight on another goroutine.
var ErrSessionBusy = core.ErrSessionBusy

// PlanCacheKey returns a canonical cache key identifying a planning request
// (flow fingerprint + canonicalized options + binding). Planning is
// deterministic in these inputs, so equal keys yield identical Results; the
// HTTP service's plan cache is keyed by it. ok is false when the options
// contain components that cannot be canonicalized (custom measures or a
// non-built-in policy), in which case the request must not be cached.
func PlanCacheKey(g *Graph, bind Binding, opts Options) (string, bool) {
	return core.PlanKey(g, bind, opts)
}

// Service -------------------------------------------------------------------

// ServerConfig tunes the HTTP planning service (session TTL, session cap,
// plan cache capacity).
type ServerConfig = server.Config

// PlanServer is the multi-session HTTP planning service: it exposes the
// full explore-select loop over REST + Server-Sent Events, backed by a
// TTL-evicting session store and a fingerprint-keyed plan cache. It
// implements http.Handler; mount it on any http.Server (the `poiesis serve`
// command does exactly that).
type PlanServer = server.Server

// NewServer builds the HTTP planning service. When ServerConfig.Backend is a
// disk backend holding records from a previous run, the non-expired sessions
// are restored before the first request is served.
func NewServer(cfg ServerConfig) *PlanServer { return server.New(cfg) }

// BuildInfo reports the binary's module version and VCS revision as stamped
// by the Go toolchain ("unknown" when unstamped). The same identity appears
// in GET /v1/healthz and the service's poiesis_build_info metric.
func BuildInfo() (version, revision string) { return obs.BuildInfo() }

// SessionBackend is the pluggable persistence layer of the service's session
// registry: reads stay in-memory-fast, every state-changing operation writes
// a versioned session record through, and startup restores the backend's
// records. A backend whose Name is "memory" keeps no records, and the server
// then builds and writes none. Implementations must be safe for concurrent
// use and have exactly one writing server process.
type SessionBackend = server.SessionBackend

// SessionRecord is the unit of session persistence: service metadata plus
// the core SessionSnapshot.
type SessionRecord = server.SessionRecord

// SessionSnapshot is the versioned, self-contained serialized form of a
// Session (current flow, binding, selection history, last result). Produce
// one with Session.Snapshot and rebuild with RestoreSession.
type SessionSnapshot = core.SessionSnapshot

// RestoreSession rebuilds a Session from a snapshot; the planner is supplied
// by the caller (nil uses the default) because planner options do not
// serialize.
func RestoreSession(p *Planner, snap *SessionSnapshot) (*Session, error) {
	return core.RestoreSession(p, snap)
}

// Cluster mode ---------------------------------------------------------------

// ClusterMember identifies one replica of a `poiesis serve` cluster: a
// stable node ID (the consistent-hash ring operates on IDs) and the base
// URL peers reach the replica at.
type ClusterMember = cluster.Member

// Cluster is the shard-aware replica runtime handed to ServerConfig.Cluster:
// a consistent-hash ring over the static membership, the forwarding client
// that proxies session requests (SSE included) to their owning replica, and
// the shared plan-cache tier that asks a plan key's owner before evaluating
// and writes results through to it. Every replica must be constructed with
// the same membership list.
type Cluster = cluster.Cluster

// NewCluster builds the cluster runtime for the replica named self; members
// is the full static membership including self's own entry.
func NewCluster(self string, members []ClusterMember) (*Cluster, error) {
	return cluster.New(cluster.Config{Self: self, Members: members})
}

// ParseClusterPeers parses the `-peers` CLI membership spec:
// comma-separated id=url pairs, e.g. "a=http://10.0.0.1:8080,b=http://10.0.0.2:8080".
func ParseClusterPeers(spec string) ([]ClusterMember, error) {
	return cluster.ParsePeers(spec)
}

// NewMemorySessionBackend returns the session backend that keeps no records
// (the default): sessions live only in the server's memory and die with the
// process, and the server writes nothing through.
func NewMemorySessionBackend() SessionBackend { return server.NewMemoryBackend() }

// NewDiskSessionBackend returns the crash-safe disk session backend rooted
// at dir: each session is one atomic, fsync'd JSON snapshot file, restored
// on the next NewServer over the same directory.
func NewDiskSessionBackend(dir string) (*server.DiskBackend, error) {
	return server.NewDiskBackend(dir)
}

// Measures ------------------------------------------------------------------

// Characteristic is a quality characteristic.
type Characteristic = measures.Characteristic

// Quality characteristics (Fig. 1 plus reliability and cost).
const (
	Performance   = measures.Performance
	DataQuality   = measures.DataQuality
	Manageability = measures.Manageability
	Reliability   = measures.Reliability
	CostChar      = measures.Cost
)

// Report is the estimated measure tree of one design.
type Report = measures.Report

// CustomMeasure is a user-defined quality metric (P3); add via
// Options.CustomMeasures.
type CustomMeasure = measures.CustomMeasure

// RelativeChanges compares a design against the baseline (Fig. 5).
func RelativeChanges(alt, baseline *Report) []measures.CharRelChange {
	return measures.Relative(alt, baseline)
}

// Policies ------------------------------------------------------------------

// Policy decides which pattern applications to explore.
type Policy = policy.Policy

// Deployment policies.
type (
	// ExhaustivePolicy checks every valid application point.
	ExhaustivePolicy = policy.Exhaustive
	// GreedyPolicy keeps the TopK best-fitness points per pattern.
	GreedyPolicy = policy.Greedy
	// GoalDrivenPolicy weights patterns by the user's goal priorities.
	GoalDrivenPolicy = policy.GoalDriven
	// RandomSamplePolicy samples the candidate space uniformly.
	RandomSamplePolicy = policy.RandomSample
)

// Goals is the user-defined prioritisation of characteristics.
type Goals = policy.Goals

// NewGoals builds a goal set from characteristic weights.
func NewGoals(weights map[Characteristic]float64) Goals {
	return policy.NewGoals(weights)
}

// Constraint rejects designs violating measure bounds.
type Constraint = policy.Constraint

// Constraint builders.
var (
	MaxMeasure = policy.MaxMeasure
	MinMeasure = policy.MinMeasure
	MinScore   = policy.MinScore
)

// Import / export -----------------------------------------------------------

// LoadXLM reads an xLM flow from a file.
func LoadXLM(path string) (*Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("poiesis: %w", err)
	}
	return xlm.Decode(b)
}

// DecodeXLM parses an xLM document.
func DecodeXLM(b []byte) (*Graph, error) { return xlm.Decode(b) }

// EncodeXLM serialises a flow to xLM.
func EncodeXLM(g *Graph) ([]byte, error) { return xlm.Encode(g) }

// SaveXLM writes a flow to a file in xLM.
func SaveXLM(path string, g *Graph) error {
	b, err := xlm.Encode(g)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// LoadPDI reads a Pentaho .ktr transformation from a file.
func LoadPDI(path string) (*Graph, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("poiesis: %w", err)
	}
	return pdi.Decode(b)
}

// DecodePDI parses a .ktr document.
func DecodePDI(b []byte) (*Graph, error) { return pdi.Decode(b) }

// EncodePDI serialises a flow to a minimal .ktr document.
func EncodePDI(g *Graph) ([]byte, error) { return pdi.Encode(g) }

// Demo workloads -------------------------------------------------------------

// TPCDSPurchases builds the Fig. 2 S_Purchases flow.
func TPCDSPurchases() *Graph { return tpcds.PurchasesFlow() }

// TPCDSSales builds the larger TPC-DS-based demo process.
func TPCDSSales() *Graph { return tpcds.SalesETL() }

// TPCDSInventory builds the union/dedup-heavy TPC-DS inventory process.
func TPCDSInventory() *Graph { return tpcds.InventoryETL() }

// TPCHRevenue builds the TPC-H-based demo process.
func TPCHRevenue() *Graph { return tpch.RevenueETL() }

// TPCHPricingSummary builds the TPC-H Q1-style pricing summary process.
func TPCHPricingSummary() *Graph { return tpch.PricingSummaryETL() }

// BuiltinFlow builds a demo flow by its registry name (the names the CLI
// accepts for FLOW arguments and the HTTP service accepts in flow uploads);
// ok is false for unknown names.
func BuiltinFlow(name string) (*Graph, bool) { return workloads.Get(name) }

// BuiltinFlowNames lists the built-in demo flow names, sorted.
func BuiltinFlowNames() []string { return workloads.Names() }

// AutoBinding generates synthetic source bindings for any flow: every
// extract node receives a deterministic source of the given scale with
// moderate defect rates. Use tpcds.Binding / tpch.Binding proportions via
// TPCDSBinding / TPCHBinding for the demo flows.
func AutoBinding(g *Graph, scale int, seed uint64) Binding {
	return sim.AutoBinding(g, scale, seed)
}

// TPCDSBinding returns the TPC-DS-proportioned binding for flows from this
// package.
func TPCDSBinding(g *Graph, scale int, seed uint64) Binding {
	return tpcds.Binding(g, scale, seed)
}

// TPCHBinding returns the TPC-H-proportioned binding.
func TPCHBinding(g *Graph, scale int, seed uint64) Binding {
	return tpch.Binding(g, scale, seed)
}

// Visualization ---------------------------------------------------------------

// ScatterOptions labels the Fig. 4 scatter plot.
type ScatterOptions = viz.ScatterConfig

// RenderScatterASCII renders the alternative space with the skyline
// highlighted, using the first two skyline dimensions as axes.
func RenderScatterASCII(res *Result, cfg ScatterOptions) string {
	return viz.ASCIIScatter(server.ScatterPoints(res), server.ScatterLabels(res, cfg))
}

// RenderScatterSVG renders the Fig. 4 scatter as an SVG document (third
// dimension as marker size).
func RenderScatterSVG(res *Result, cfg ScatterOptions) string {
	return viz.SVGScatter(server.ScatterPoints(res), server.ScatterLabels(res, cfg))
}

// RenderRelativeBars renders the Fig. 5 relative-change bars for an
// alternative against the run's initial flow; expand selects characteristics
// to drill into ("*" expands all).
func RenderRelativeBars(alt *Alternative, res *Result, expand map[string]bool) string {
	rel := measures.Relative(alt.Report, res.Initial.Report)
	return viz.ASCIIBars(viz.RelativeBars(rel), expand)
}

// OpBottleneck aggregates one operation's simulated behaviour over a trace
// batch (bottlenecks first).
type OpBottleneck = trace.OpAgg

// EvaluateFlow executes a flow once with Monte-Carlo failure sampling and
// returns its measure report plus the per-operation bottleneck summary.
// A zero SimConfig uses the defaults.
func EvaluateFlow(g *Graph, bind Binding, cfg SimConfig) (*Report, []OpBottleneck, error) {
	if cfg.Runs == 0 {
		cfg = sim.DefaultConfig()
	}
	engine := sim.NewEngine(cfg)
	profile, batch, err := engine.Evaluate(g, bind)
	if err != nil {
		return nil, nil, err
	}
	report := measures.NewEstimator(measures.Config{}).Estimate(g, profile, batch)
	return report, batch.OpSummary(), nil
}

// RenderRelativeBarsSVG renders the Fig. 5 bars as an SVG document.
func RenderRelativeBarsSVG(alt *Alternative, res *Result, expand map[string]bool, title string) string {
	rel := measures.Relative(alt.Report, res.Initial.Report)
	return viz.SVGBars(viz.RelativeBars(rel), expand, title)
}

// Selection replay and skyline analysis ---------------------------------------

// Replay re-applies a recorded application history onto a fresh clone of the
// initial flow (how a selection is integrated into the real process).
func Replay(reg *PatternRegistry, initial *Graph, apps []fcp.Application) (*Graph, error) {
	return core.Replay(reg, initial, apps)
}

// ReplayVerified replays and checks the result against the alternative's
// fingerprint.
func ReplayVerified(reg *PatternRegistry, initial *Graph, alt *Alternative) (*Graph, error) {
	return core.ReplayVerified(reg, initial, alt)
}

// Explanation says why a skyline member is presented.
type Explanation = core.Explanation

// ExplainSkyline explains every frontier member of a result.
func ExplainSkyline(res *Result) []Explanation { return core.ExplainSkyline(res) }

// PatternUsage counts pattern occurrences across a result.
type PatternUsage = core.PatternUsage

// AnalyzePatternUsage aggregates which patterns appear in the space and on
// the frontier.
func AnalyzePatternUsage(res *Result) []PatternUsage { return core.AnalyzePatternUsage(res) }

// FrontierSpread reports per-dimension [min,max] across the skyline.
func FrontierSpread(res *Result) map[Characteristic][2]float64 {
	return core.FrontierSpread(res)
}

// Flow export -----------------------------------------------------------------

// FlowDiff describes the structural difference between two flows.
type FlowDiff = etl.Diff

// DiffFlows compares two flows by node identity.
func DiffFlows(base, next *Graph) FlowDiff { return etl.DiffFlows(base, next) }

// ExportDOT renders a flow in Graphviz DOT format.
func ExportDOT(g *Graph) string { return g.DOT() }

// EncodeJSON serialises a flow to the JSON wire format.
func EncodeJSON(g *Graph) ([]byte, error) { return g.MarshalJSON() }

// DecodeJSON parses a JSON flow document.
func DecodeJSON(b []byte) (*Graph, error) {
	var g Graph
	if err := g.UnmarshalJSON(b); err != nil {
		return nil, err
	}
	return &g, nil
}

// Extension patterns -----------------------------------------------------------

// NewPushDownSelection builds the selection push-down optimization pattern
// (beyond the Fig. 6 palette; register it to enable).
func NewPushDownSelection() Pattern { return fcp.NewPushDownSelection() }

// User configuration -------------------------------------------------------------

// ConfigDocument is a parsed user-configuration document (the second input
// of the Fig. 3 architecture): palette, policy, goals, constraints, custom
// patterns and simulation parameters as JSON.
type ConfigDocument = config.Document

// ParseConfig decodes a configuration document.
func ParseConfig(b []byte) (*ConfigDocument, error) { return config.Parse(b) }

// LoadConfig reads a configuration document from a file.
func LoadConfig(path string) (*ConfigDocument, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("poiesis: %w", err)
	}
	return config.Parse(b)
}

// ServeConfig is a parsed `poiesis serve` configuration document: the
// operational knobs (listen address, session TTL and cap, cache bounds, and
// the storeDir key that enables the persistent disk session store).
type ServeConfig = config.ServeDoc

// ParseServeConfig decodes a serve configuration document; unknown keys and
// malformed durations are rejected.
func ParseServeConfig(b []byte) (*ServeConfig, error) { return config.ParseServe(b) }

// LoadServeConfig reads a serve configuration document from a file.
func LoadServeConfig(path string) (*ServeConfig, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("poiesis: %w", err)
	}
	return config.ParseServe(b)
}

// PlannerFromConfig materialises a planner (registry + options) from a
// configuration document; a nil document yields the default planner.
func PlannerFromConfig(doc *ConfigDocument) (*Planner, error) { return doc.Planner() }
