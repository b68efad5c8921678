package server

import (
	"encoding/json"
	"math"

	"poiesis/internal/cluster"
	"poiesis/internal/core"
	"poiesis/internal/measures"
	"poiesis/internal/obs"
	"poiesis/internal/viz"
)

// Wire DTOs. The JSON shapes are the service's public contract; internal
// types are mapped explicitly so core refactors don't silently change the
// API.

type errorJSON struct {
	Error string `json:"error"`
}

// diagnosticJSON is one static-analysis finding (etl.Lint) on the wire. The
// shape mirrors internal/lint/diag.Diagnostic's JSON tags so the HTTP API and
// the poiesis-lint CLI emit interchangeable diagnostics.
type diagnosticJSON struct {
	Check   string `json:"check"`
	Pos     string `json:"pos"`
	Message string `json:"message"`
}

// lintErrorJSON is the 422 body for statically invalid flow/constraint
// pairs: the summary error plus every individual finding.
type lintErrorJSON struct {
	Error       string           `json:"error"`
	Diagnostics []diagnosticJSON `json:"diagnostics"`
}

type sessionJSON struct {
	ID         string            `json:"id"`
	Name       string            `json:"name,omitempty"`
	Flow       string            `json:"flow"`
	Nodes      int               `json:"nodes"`
	Edges      int               `json:"edges"`
	Created    string            `json:"created"`
	LastUsed   string            `json:"lastUsed"`
	Plans      int               `json:"plans"`
	HasResult  bool              `json:"hasResult"`
	Iterations int               `json:"iterations"`
	History    []selectionJSON   `json:"history,omitempty"`
	Links      map[string]string `json:"links,omitempty"`
}

type selectionJSON struct {
	Iteration   int     `json:"iteration"`
	Label       string  `json:"label"`
	ScoreBefore float64 `json:"scoreBefore"`
	ScoreAfter  float64 `json:"scoreAfter"`
}

type measureJSON struct {
	Name           string        `json:"name"`
	Value          float64       `json:"value"`
	Unit           string        `json:"unit,omitempty"`
	HigherIsBetter bool          `json:"higherIsBetter"`
	Detail         []measureJSON `json:"detail,omitempty"`
}

type charJSON struct {
	Characteristic string        `json:"characteristic"`
	Score          float64       `json:"score"`
	Measures       []measureJSON `json:"measures,omitempty"`
}

type reportJSON struct {
	Flow        string     `json:"flow"`
	Fingerprint string     `json:"fingerprint"`
	Chars       []charJSON `json:"characteristics"`
}

func toReportJSON(r *measures.Report) *reportJSON {
	if r == nil {
		return nil
	}
	out := &reportJSON{Flow: r.Flow, Fingerprint: r.Fingerprint}
	for _, cr := range r.Chars {
		jc := charJSON{Characteristic: string(cr.Characteristic), Score: cr.Score}
		for _, m := range cr.Measures {
			jc.Measures = append(jc.Measures, toMeasureJSON(m))
		}
		out.Chars = append(out.Chars, jc)
	}
	return out
}

func toMeasureJSON(m measures.Measure) measureJSON {
	jm := measureJSON{Name: m.Name, Value: m.Value, Unit: m.Unit, HigherIsBetter: m.HigherIsBetter}
	for _, d := range m.Detail {
		jm.Detail = append(jm.Detail, toMeasureJSON(d))
	}
	return jm
}

type skylineEntryJSON struct {
	// Index is the handle POST .../select accepts: the position within the
	// skyline (Result.SkylineIdx order).
	Index     int                `json:"index"`
	Label     string             `json:"label"`
	Scores    map[string]float64 `json:"scores"`
	LeadsOn   []string           `json:"leadsOn,omitempty"`
	WeakestOn string             `json:"weakestOn,omitempty"`
	Delta     string             `json:"delta,omitempty"`
	Report    *reportJSON        `json:"report,omitempty"`
}

type statsJSON struct {
	CandidatesSeen     int  `json:"candidatesSeen"`
	Generated          int  `json:"generated"`
	Deduped            int  `json:"deduped"`
	Evaluated          int  `json:"evaluated"`
	ConstraintRejected int  `json:"constraintRejected"`
	StaticPruned       int  `json:"staticPruned,omitempty"`
	Capped             bool `json:"capped"`
}

// resultJSON deliberately omits planner stage timings: the result body must
// be byte-identical whether it was computed here, restored from a snapshot
// or fetched from a peer's cache. Timings live in GET .../trace.
type resultJSON struct {
	Cached         bool                  `json:"cached"`
	Dims           []string              `json:"dims"`
	Stats          statsJSON             `json:"stats"`
	Initial        skylineEntryJSON      `json:"initial"`
	Alternatives   int                   `json:"alternatives"`
	SkylineSize    int                   `json:"skylineSize"`
	Skyline        []skylineEntryJSON    `json:"skyline"`
	FrontierSpread map[string][2]float64 `json:"frontierSpread,omitempty"`
	PatternUsage   []patternUsageJSON    `json:"patternUsage,omitempty"`
	Scatter        json.RawMessage       `json:"scatter,omitempty"`
}

type patternUsageJSON struct {
	Pattern      string `json:"pattern"`
	Applications int    `json:"applications"`
	InSkyline    int    `json:"inSkyline"`
}

type selectResponseJSON struct {
	Selection selectionJSON `json:"selection"`
	// Delta summarises what integrating the selection changed structurally.
	Delta string `json:"delta"`
	Flow  string `json:"flow"`
	Nodes int    `json:"nodes"`
	Edges int    `json:"edges"`
}

type progressJSON struct {
	Seq         int    `json:"seq"`
	Label       string `json:"label"`
	Error       string `json:"error,omitempty"`
	Generated   int    `json:"generated"`
	Evaluated   int    `json:"evaluated"`
	Kept        int    `json:"kept"`
	SkylineSize int    `json:"skylineSize"`
	// StageNs summarises cumulative planner stage time (nanoseconds) at the
	// moment the event was emitted.
	StageNs stageNsJSON `json:"stageNs"`
}

// stageNsJSON mirrors core.StageNanos on the wire.
type stageNsJSON struct {
	PatternApplication int64 `json:"patternApplication"`
	Evaluation         int64 `json:"evaluation"`
	ConstraintFilter   int64 `json:"constraintFilter"`
	SkylineMerge       int64 `json:"skylineMerge"`
}

// healthzJSON is the liveness probe body, carrying build identity.
type healthzJSON struct {
	Status   string `json:"status"`
	Version  string `json:"version"`
	Revision string `json:"revision"`
}

type serverStatsJSON struct {
	Sessions         int    `json:"sessions"`
	Backend          string `json:"backend"`
	SessionsRestored int    `json:"sessionsRestored"`
	PersistErrors    int64  `json:"persistErrors"`
	// Eviction-worker health: backlog of queued backend deletes, completed
	// deletes, and IDs dropped because the queue was full (their records
	// wait for the next start, which deletes them as expired).
	EvictQueue    int64 `json:"evictQueue"`
	Evictions     int64 `json:"evictions"`
	EvictDropped  int64 `json:"evictDropped"`
	PlansComputed int64 `json:"plansComputed"`
	PlansCached   int64 `json:"plansCached"`
	Evaluations   int64 `json:"evaluations"`
	CacheHits     int64 `json:"cacheHits"`
	CacheMisses   int64 `json:"cacheMisses"`
	CacheSize     int   `json:"cacheSize"`
	CacheBytes    int64 `json:"cacheBytes"`
	// Cluster carries the per-peer forward and cache-tier counters; absent
	// in single-node mode.
	Cluster *cluster.Stats `json:"cluster,omitempty"`
	// Tracing carries the span collector's counters; absent when tracing
	// is disabled. Exemplars maps latency histogram buckets to the trace
	// ID of the slowest observation in the current scrape window.
	Tracing   *obs.TracerStats     `json:"tracing,omitempty"`
	Exemplars []obs.ExemplarSample `json:"exemplars,omitempty"`
}

// readyzJSON is the readiness probe body.
type readyzJSON struct {
	Status           string `json:"status"`
	Backend          string `json:"backend,omitempty"`
	SessionsRestored int    `json:"sessionsRestored,omitempty"`
	Cluster          bool   `json:"cluster,omitempty"`
	Node             string `json:"node,omitempty"`
}

// clusterInfoJSON is the GET /v1/cluster body.
type clusterInfoJSON struct {
	Enabled bool                `json:"enabled"`
	Self    string              `json:"self,omitempty"`
	VNodes  int                 `json:"vnodes,omitempty"`
	Members []cluster.Member    `json:"members,omitempty"`
	Peers   []cluster.PeerStats `json:"peers,omitempty"`
}

// dimsOf renders characteristic dims as strings.
func dimsOf(dims []measures.Characteristic) []string {
	out := make([]string, len(dims))
	for i, d := range dims {
		out[i] = string(d)
	}
	return out
}

// scoresOf maps a report's composite scores over the result dimensions.
func scoresOf(r *measures.Report, dims []measures.Characteristic) map[string]float64 {
	out := make(map[string]float64, len(dims))
	for _, d := range dims {
		out[string(d)] = r.Score(d)
	}
	return out
}

// toResultJSON builds the planning response (Cached false; the plan handler
// stamps it per response). includeReports attaches the full measure tree to
// every skyline entry (GET .../result?reports=1); the plan response keeps
// entries lean.
func toResultJSON(res *core.Result, includeReports bool) resultJSON {
	out := resultJSON{
		Dims:         dimsOf(res.Dims),
		Alternatives: len(res.Alternatives),
		SkylineSize:  len(res.SkylineIdx),
		Stats: statsJSON{
			CandidatesSeen:     res.Stats.CandidatesSeen,
			Generated:          res.Stats.Generated,
			Deduped:            res.Stats.Deduped,
			Evaluated:          res.Stats.Evaluated,
			ConstraintRejected: res.Stats.ConstraintRejected,
			StaticPruned:       res.Stats.StaticPruned,
			Capped:             res.Stats.Capped,
		},
		Initial: skylineEntryJSON{
			Index:  -1,
			Label:  res.Initial.Label(),
			Scores: scoresOf(res.Initial.Report, res.Dims),
		},
	}
	out.Skyline = skylineEntries(res, includeReports)
	out.FrontierSpread = frontierSpreadJSON(res)
	for _, u := range core.AnalyzePatternUsage(res) {
		out.PatternUsage = append(out.PatternUsage, patternUsageJSON{
			Pattern:      u.Pattern,
			Applications: u.Applications,
			InSkyline:    u.InSkyline,
		})
	}
	labels := ScatterLabels(res, viz.ScatterConfig{Title: "Alternative ETL flows"})
	if scatter, err := viz.ScatterJSON(ScatterPoints(res), labels); err == nil {
		out.Scatter = scatter
	}
	return out
}

// skylineEntries builds the frontier entries of a result, with their
// explanations (leading dimensions, trade-off, structural delta) and
// optionally the full measure trees. Shared by the plan response and the
// lean skyline endpoint.
func skylineEntries(res *core.Result, includeReports bool) []skylineEntryJSON {
	explanations := core.ExplainSkyline(res)
	out := make([]skylineEntryJSON, 0, len(res.SkylineIdx))
	for i, alt := range res.Skyline() {
		entry := skylineEntryJSON{
			Index:  i,
			Label:  alt.Label(),
			Scores: scoresOf(alt.Report, res.Dims),
		}
		if i < len(explanations) {
			e := explanations[i]
			entry.LeadsOn = dimsOf(e.LeadsOn)
			entry.WeakestOn = string(e.WeakestOn)
			entry.Delta = e.Delta.String()
		}
		if includeReports {
			entry.Report = toReportJSON(alt.Report)
		}
		out = append(out, entry)
	}
	return out
}

func frontierSpreadJSON(res *core.Result) map[string][2]float64 {
	out := map[string][2]float64{}
	for dim, span := range core.FrontierSpread(res) {
		out[string(dim)] = span
	}
	return out
}

// ScatterPoints projects the full alternative space onto the skyline
// dimensions for the Fig. 4 scatter: the plan response's scatter export and
// the facade's ASCII and SVG renderings.
func ScatterPoints(res *core.Result) []viz.ScatterPoint {
	sky := map[int]bool{}
	for _, i := range res.SkylineIdx {
		sky[i] = true
	}
	pts := make([]viz.ScatterPoint, 0, len(res.Alternatives))
	for i := range res.Alternatives {
		a := &res.Alternatives[i]
		v := a.Report.Vector(res.Dims)
		// NaN marks "no third dimension" for the viz exporters; a plain 0
		// would serialize a bogus z axis for two-dimensional skylines.
		p := viz.ScatterPoint{Label: a.Label(), Skyline: sky[i], Z: math.NaN()}
		if len(v) > 0 {
			p.X = v[0]
		}
		if len(v) > 1 {
			p.Y = v[1]
		}
		if len(v) > 2 {
			p.Z = v[2]
		}
		pts = append(pts, p)
	}
	return pts
}

// ScatterLabels fills the axis labels cfg leaves empty with the result's
// skyline dimensions.
func ScatterLabels(res *core.Result, cfg viz.ScatterConfig) viz.ScatterConfig {
	if cfg.XLabel == "" && len(res.Dims) > 0 {
		cfg.XLabel = string(res.Dims[0])
	}
	if cfg.YLabel == "" && len(res.Dims) > 1 {
		cfg.YLabel = string(res.Dims[1])
	}
	if cfg.ZLabel == "" && len(res.Dims) > 2 {
		cfg.ZLabel = string(res.Dims[2])
	}
	return cfg
}

func toSessionJSON(st *sessionState, includeHistory bool) sessionJSON {
	g := st.sess.Current()
	lastUsed, plans := st.meta()
	out := sessionJSON{
		ID:        st.id,
		Name:      st.name,
		Flow:      g.Name,
		Nodes:     g.Len(),
		Edges:     g.EdgeCount(),
		Created:   st.created.UTC().Format("2006-01-02T15:04:05Z"),
		LastUsed:  lastUsed.UTC().Format("2006-01-02T15:04:05Z"),
		Plans:     plans,
		HasResult: st.sess.LastResult() != nil,
	}
	history := st.sess.History()
	out.Iterations = len(history)
	if includeHistory {
		for _, rec := range history {
			out.History = append(out.History, selectionJSON{
				Iteration:   rec.Iteration,
				Label:       rec.Label,
				ScoreBefore: rec.ScoreBefore,
				ScoreAfter:  rec.ScoreAfter,
			})
		}
		base := "/v1/sessions/" + st.id
		out.Links = map[string]string{
			"plan":    base + "/plan",
			"result":  base + "/result",
			"skyline": base + "/skyline",
			"select":  base + "/select",
			"flow":    base + "/flow",
			"trace":   base + "/trace",
		}
	}
	return out
}
