package main

import (
	"math"
	"sort"
)

// metricDef declares one reported metric. The table below is the single
// source of units, directions and regression bounds: the output, the
// comparison mode and BENCHMARK.json (checked by the smoke test) all follow
// it.
type metricDef struct {
	name   string
	unit   string
	higher bool // higher is better; lower otherwise
	// bound is the share of the base median by which the metric may worsen
	// before a change counts as a regression; 0 for per-layer metrics.
	bound float64
	// layer marks metrics of the traced run.
	layer bool
	// listed marks the metrics of BENCHMARK.json: reported on every
	// workload and steady enough across runs to gate on.
	listed bool
}

// Regression bounds. Timings get 0.25: on a small shared host their
// medians move by 10-20% between runs minutes apart (see README.md), and a
// tighter bound would flag noise. Memory is steady to a few percent.
const (
	boundTime = 0.25
	boundSize = 0.10
)

var metricDefs = []metricDef{
	// End to end, on every workload. analyst_ms_p50 is not listed in
	// BENCHMARK.json: on cluster-shared its spread across runs reached the
	// bound.
	{name: "setup_s", unit: "s", bound: boundTime, listed: true},
	{name: "skyline_ms_p50", unit: "ms", bound: boundTime, listed: true},
	{name: "analyst_ms_p50", unit: "ms", bound: boundTime},
	{name: "cpu_ms_per_op", unit: "ms", bound: boundTime, listed: true},
	{name: "heap_retained_mb", unit: "MB", bound: boundSize, listed: true},

	// End to end, per request class, on the workloads that have the class;
	// failures and limit misses are gated by the failed count instead. Tail
	// percentiles are not reported: their medians across runs flapped by
	// 25-70% (see README.md).
	{name: "plan_ms_p50", unit: "ms", bound: boundTime},
	{name: "cached_plan_ms_p50", unit: "ms", bound: boundTime},
	{name: "read_ms_p50", unit: "ms", bound: boundTime},
	{name: "write_ms_p50", unit: "ms", bound: boundTime},
	{name: "alternatives_per_s", unit: "1/s", higher: true, bound: boundTime},
	{name: "slo_miss_pct", unit: "%"},
	{name: "error_pct", unit: "%"},

	// Per layer, on every workload: a single-threaded replay of one of the
	// workload's plans, timed call by call.
	{name: "policy.propose_ms", unit: "ms", layer: true, listed: true},
	{name: "policy.candidates", unit: "count", layer: true, listed: true},
	{name: "fcp.apply_ms", unit: "ms", layer: true, listed: true},
	{name: "etl.clone_ms", unit: "ms", layer: true, listed: true},
	{name: "etl.fingerprint_ms", unit: "ms", layer: true, listed: true},
	{name: "sim.execute_ms", unit: "ms", layer: true, listed: true},
	{name: "sim.sample_ms", unit: "ms", layer: true, listed: true},
	{name: "sim.cone_hit_pct", unit: "%", higher: true, layer: true, listed: true},
	{name: "sim.nodes_executed", unit: "count", layer: true, listed: true},
	{name: "measures.estimate_ms", unit: "ms", layer: true, listed: true},
	{name: "skyline.add_ms", unit: "ms", layer: true, listed: true},
	{name: "policy.check_ms", unit: "ms", layer: true, listed: true},
	{name: "core.generated", unit: "count", layer: true, listed: true},
	{name: "core.deduped", unit: "count", layer: true, listed: true},
	{name: "core.static_pruned", unit: "count", layer: true},
	{name: "core.evaluated", unit: "count", layer: true, listed: true},
	{name: "core.useful_pct", unit: "%", higher: true, layer: true, listed: true},
	{name: "core.plan_ms", unit: "ms", layer: true, listed: true},
	{name: "core.plan_ms_w1", unit: "ms", layer: true, listed: true},
	{name: "core.parallel_speedup", unit: "x", higher: true, layer: true, listed: true},
	{name: "core.unattributed_pct", unit: "%", layer: true, listed: true},
	{name: "runtime.gc_pause_ms", unit: "ms", layer: true, listed: true},
	{name: "runtime.alloc_mb_per_op", unit: "MB", layer: true, listed: true},
	{name: "trace_overhead_pct", unit: "%", layer: true, listed: true},

	// Per layer, on the served workloads.
	{name: "client.queue_ms_p95", unit: "ms", layer: true},
	{name: "gen.lag_ms_p99", unit: "ms", layer: true},
	{name: "store.put_ms", unit: "ms", layer: true},
	{name: "store.get_ms", unit: "ms", layer: true},
	{name: "store.delete_ms", unit: "ms", layer: true},
	{name: "store.list_ms", unit: "ms", layer: true},
	{name: "store.puts", unit: "count", layer: true},
	{name: "store.gets", unit: "count", layer: true},
	{name: "store.deletes", unit: "count", layer: true},
	{name: "store.lists", unit: "count", layer: true},
	{name: "server.self_ms_p50.plan", unit: "ms", layer: true},
	{name: "server.self_ms_p50.cached_plan", unit: "ms", layer: true},
	{name: "server.self_ms_p50.read", unit: "ms", layer: true},
	{name: "server.self_ms_p50.write", unit: "ms", layer: true},
	{name: "server.cache_hit_pct", unit: "%", higher: true, layer: true},
	{name: "server.response_kb.plan", unit: "KB", layer: true},
	{name: "server.response_kb.cached_plan", unit: "KB", layer: true},
	{name: "server.response_kb.read", unit: "KB", layer: true},
	{name: "server.response_kb.write", unit: "KB", layer: true},

	// Per layer, on the cluster workload.
	{name: "cluster.forwarded_pct", unit: "%", layer: true},
	{name: "cluster.hop_ms_p50.plan", unit: "ms", layer: true},
	{name: "cluster.hop_ms_p50.cached_plan", unit: "ms", layer: true},
	{name: "cluster.hop_ms_p50.read", unit: "ms", layer: true},
	{name: "cluster.hop_ms_p50.write", unit: "ms", layer: true},
	{name: "cluster.peer_cache_gets", unit: "count", layer: true},
	{name: "cluster.peer_cache_hits", unit: "count", layer: true},
	{name: "cluster.peer_cache_puts", unit: "count", layer: true},
	{name: "cluster.plans_computed", unit: "count", layer: true},
	{name: "cluster.cold_keys", unit: "count", layer: true},
}

// metricIndex finds a metric definition by name.
func metricIndex(name string) (metricDef, bool) {
	for _, d := range metricDefs {
		if d.name == name {
			return d, true
		}
	}
	return metricDef{}, false
}

// percentile returns the p-th percentile (0..100) of xs by linear
// interpolation between closest ranks; xs need not be sorted and is not
// modified. NaN for an empty slice.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles returns the first quartile, median and third quartile of xs
// by the exclusive method of Python's statistics.quantiles(n=4), so spreads
// computed here and with Python agree.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(j int) float64 {
		// Position j/4 of the way through n+1 gaps, clamped to the ends.
		m := float64(j) * float64(n+1) / 4
		k := int(math.Floor(m))
		switch {
		case k < 1:
			return s[0]
		case k >= n:
			return s[n-1]
		}
		return s[k-1] + (s[k]-s[k-1])*(m-float64(k))
	}
	return at(1), at(2), at(3)
}
