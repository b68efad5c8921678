package main

import (
	"context"
	"math"
	"math/rand/v2"
	"slices"
	"time"

	"poiesis"
)

// workload is one set of inputs the benchmark runs.
type workload struct {
	name string
	run  func(ctx context.Context, cfg config) (*report, error)
}

// The workloads, and why each was chosen:
//
//   - fig4-plan calls the planner in process at Fig. 4 scale, so nearly all
//     the time is in core, policy, fcp, etl, sim, measures and skyline, and
//     none in the server, the store or the cluster. Generation (dominated
//     by fingerprinting) costs about as much as simulation there, so both
//     halves show.
//   - serve-explore gives every analyst a fresh binding seed, so every plan
//     misses the plan cache and the planner runs under HTTP while analysts'
//     plans compete for the cores.
//   - serve-shared draws every plan from ten keys warmed in set-up, so the
//     planner is idle and HTTP, JSON, the session store, the plan cache and
//     the fsync'd disk write-through do the work, reads beside writes. Its
//     set-up restores 500 persisted sessions: the restart cost.
//   - cluster-shared runs the serve-shared script against three replicas,
//     each request to a random one, so two in three are forwarded; one
//     analyst in four has a fresh seed, whose plan is computed once in the
//     cluster and goes through the peer cache.
var workloads = []workload{
	{name: "fig4-plan", run: runFig4},
	{name: "serve-explore", run: serveRunner(serveExplore)},
	{name: "serve-shared", run: serveRunner(serveShared)},
	{name: "cluster-shared", run: serveRunner(clusterShared)},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Session configurations of the served workloads (POST /v1/sessions
// "config" documents). Rows is also the session's binding scale.
const (
	exploreDoc   = `{"policy":"greedy","topK":2,"depth":2,"sim":{"runs":16,"defaultRows":500}}`
	exploreScale = 500
	sharedDoc    = `{"policy":"greedy","topK":2,"depth":1,"sim":{"runs":16,"defaultRows":300}}`
	sharedScale  = 300
)

// step is one request of an analyst's script.
type step int

const (
	stepCreate step = iota
	stepPlan
	stepSkyline
	stepSession
	stepSelect
	stepDelete
)

func (s step) String() string {
	return [...]string{"create", "plan", "skyline", "session", "select", "delete"}[s]
}

// Scripts: each step is due when the previous reply arrived.
var (
	exploreScript = []step{stepCreate, stepPlan, stepSkyline, stepSelect, stepPlan, stepDelete}
	sharedScript  = []step{stepCreate, stepPlan,
		stepSkyline, stepSession, stepSkyline, stepSession, stepSkyline, stepSession,
		stepSkyline, stepSession, stepSkyline, stepSession,
		stepSelect, stepPlan, stepSkyline, stepDelete}
)

// serveSpec describes one served workload.
type serveSpec struct {
	name     string
	rate     float64 // analyst arrivals per second, Poisson
	replicas int
	disk     bool // fsync'd disk backend pre-seeded with persisted sessions
	doc      string
	scale    int
	// freshEvery gives one analyst in n a binding seed of its own, so its
	// plans are cold; 1 makes every analyst fresh, 0 none. The others use
	// the shared keys.
	freshEvery int
	script     []step
}

var (
	serveExplore = serveSpec{name: "serve-explore", rate: 4, replicas: 1,
		doc: exploreDoc, scale: exploreScale, freshEvery: 1, script: exploreScript}
	serveShared = serveSpec{name: "serve-shared", rate: 8, replicas: 1, disk: true,
		doc: sharedDoc, scale: sharedScale, script: sharedScript}
	clusterShared = serveSpec{name: "cluster-shared", rate: 6, replicas: 3,
		doc: sharedDoc, scale: sharedScale, freshEvery: 4, script: sharedScript}
)

// persistedSessions pre-seed the disk backend of serve-shared.
const persistedSessions = 500

// checkedPerKind is how many analysts of each kind (fresh or shared inputs)
// have their served skylines checked after the window.
const checkedPerKind = 16

// sharedKey is one of the ten shared plan inputs: a builtin flow and one of
// two binding seeds.
type sharedKey struct {
	flow string
	seed uint64
}

func sharedKeys() []sharedKey {
	var keys []sharedKey
	for _, f := range poiesis.BuiltinFlowNames() {
		keys = append(keys, sharedKey{f, 1}, sharedKey{f, 2})
	}
	return keys
}

// analystSpec is one analyst of a served workload, fully determined by the
// seed and its index.
type analystSpec struct {
	index int
	at    time.Duration // arrival, from the start of the warm-up
	flow  string
	seed  uint64 // binding seed
	fresh bool   // binding seed unique to this analyst
	check bool   // served skylines are checked after the window
}

// mix derives a well-spread value from the run seed, a stream name and an
// index (splitmix64 over an FNV-1a hash of the name).
func mix(seed uint64, stream string, i uint64) uint64 {
	h := uint64(1469598103934665603)
	for j := 0; j < len(stream); j++ {
		h ^= uint64(stream[j])
		h *= 1099511628211
	}
	x := seed*0x9E3779B97F4A7C15 ^ h ^ i*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	return x ^ x>>31
}

// schedule lays out the analysts of one run; the same seed gives the same
// schedule. rate × warmup analysts arrive during the warm-up and rate ×
// length during the window, each at a uniformly random time within its
// span: a Poisson process conditioned on its count, so every window gets
// the same load. Each span also gets the same inputs in every run — its
// share of fresh analysts, fresh inputs cycling through the flows, shared
// analysts cycling through the shared keys — and the seed decides which
// analyst gets which. Runs so differ in timing and order, not in the work
// offered, which keeps their medians comparable.
func schedule(spec serveSpec, seed uint64, warmup, length time.Duration) []analystSpec {
	rng := rand.New(rand.NewPCG(seed, mix(seed, spec.name, 0)))
	flows := poiesis.BuiltinFlowNames()
	keys := sharedKeys()
	var out []analystSpec
	checked := map[bool]int{}
	for span, bounds := range [][2]time.Duration{{0, warmup}, {warmup, length}} {
		n := int(math.Round(spec.rate * bounds[1].Seconds()))
		if span > 0 {
			n = max(n, 1)
		}
		times := make([]time.Duration, n)
		for i := range times {
			times[i] = bounds[0] + time.Duration(rng.Float64()*float64(bounds[1]))
		}
		slices.Sort(times)
		fresh := make([]bool, n)
		if spec.freshEvery > 0 {
			for i := 0; i < n/spec.freshEvery; i++ {
				fresh[i] = true
			}
		}
		rng.Shuffle(n, func(i, j int) { fresh[i], fresh[j] = fresh[j], fresh[i] })
		nFresh := 0
		for _, f := range fresh {
			if f {
				nFresh++
			}
		}
		freshInputs, sharedInputs := rng.Perm(nFresh), rng.Perm(n-nFresh)
		for i, at := range times {
			a := analystSpec{index: len(out), at: at, fresh: fresh[i]}
			if a.fresh {
				j := freshInputs[0]
				freshInputs = freshInputs[1:]
				// Shared keys use binding seeds 1 and 2; fresh ones start far
				// above, apart per span.
				a.flow, a.seed = flows[j%len(flows)], uint64(1<<20+span<<16+j)
			} else {
				k := keys[sharedInputs[0]%len(keys)]
				sharedInputs = sharedInputs[1:]
				a.flow, a.seed = k.flow, k.seed
			}
			if checked[a.fresh] < checkedPerKind {
				checked[a.fresh]++
				a.check = true
			}
			out = append(out, a)
		}
	}
	return out
}

// Fig. 4 scale: the tpcds-sales flow, exhaustive policy, two rounds, 300
// source rows and 32 Monte-Carlo runs per alternative (2350 alternatives).
const (
	fig4Flow  = "tpcds-sales"
	fig4Scale = 300
	fig4Pool  = 16 // binding seeds 1..16, each with a golden skyline
)

func fig4Options() poiesis.Options {
	return poiesis.Options{
		Policy:          poiesis.ExhaustivePolicy{},
		Depth:           2,
		MaxAlternatives: 4096,
		Sim:             poiesis.SimConfig{DefaultRows: fig4Scale, Seed: 1, RetryBudget: 8, Runs: 32, PipelineOverlap: 0.7},
	}
}

// fig4Order is the order in which fig4-plan cycles through its binding
// seeds: a permutation of the pool drawn from the run seed. A run covers
// about the whole pool, so its median does not hinge on which seeds it drew.
func fig4Order(seed uint64) []uint64 {
	out := make([]uint64, fig4Pool)
	for i := range out {
		out[i] = uint64(i + 1)
	}
	rng := rand.New(rand.NewPCG(seed, mix(seed, "fig4-plan", 0)))
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}
