package etl

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"testing/quick"
)

func TestFingerprintStable(t *testing.T) {
	g := linearFlow(t)
	f1 := g.Fingerprint()
	f2 := g.Fingerprint()
	if f1 != f2 {
		t.Error("fingerprint not stable across calls")
	}
	if f1 != linearFlow(t).Fingerprint() {
		t.Error("identical construction should fingerprint identically")
	}
}

func TestFingerprintIgnoresInsertionOrder(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	mk := func(reverse bool) *Graph {
		g := New("f")
		nodes := []*Node{
			NewNode("a", "a", OpExtract, s),
			NewNode("b", "b", OpDerive, s),
			NewNode("c", "c", OpLoad, Schema{}),
		}
		if reverse {
			for i := len(nodes) - 1; i >= 0; i-- {
				g.MustAddNode(nodes[i])
			}
		} else {
			for _, n := range nodes {
				g.MustAddNode(n)
			}
		}
		g.MustAddEdge("a", "b")
		g.MustAddEdge("b", "c")
		return g
	}
	if mk(false).Fingerprint() != mk(true).Fingerprint() {
		t.Error("fingerprint should not depend on node insertion order")
	}
}

func TestFingerprintIgnoresIDSpelling(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	mk := func(ids [3]NodeID) *Graph {
		g := New("f")
		g.MustAddNode(NewNode(ids[0], "ext", OpExtract, s))
		g.MustAddNode(NewNode(ids[1], "drv", OpDerive, s))
		g.MustAddNode(NewNode(ids[2], "ld", OpLoad, Schema{}))
		g.MustAddEdge(ids[0], ids[1])
		g.MustAddEdge(ids[1], ids[2])
		return g
	}
	a := mk([3]NodeID{"a", "b", "c"})
	b := mk([3]NodeID{"x1", "x2", "x3"})
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("fingerprint should not depend on node ID spelling")
	}
}

func TestFingerprintSensitivity(t *testing.T) {
	base := linearFlow(t)

	// Changing a parameter changes the fingerprint.
	g2 := base.Clone()
	g2.MutableNode("flt").SetParam("predicate", "amount > 10")
	if base.Fingerprint() == g2.Fingerprint() {
		t.Error("parameter change should change fingerprint")
	}

	// Changing parallelism changes the fingerprint.
	g3 := base.Clone()
	g3.MutableNode("drv").Parallelism = 4
	if base.Fingerprint() == g3.Fingerprint() {
		t.Error("parallelism change should change fingerprint")
	}

	// Changing structure changes the fingerprint.
	g4 := base.Clone()
	n := NewNode(g4.FreshID("x"), "x", OpFilterNull, g4.Node("src").Out)
	if err := g4.InsertOnEdge("src", "flt", n); err != nil {
		t.Fatal(err)
	}
	if base.Fingerprint() == g4.Fingerprint() {
		t.Error("structural change should change fingerprint")
	}

	// Same pattern at different positions -> different fingerprints.
	g5 := base.Clone()
	n5 := NewNode(g5.FreshID("x"), "x", OpFilterNull, g5.Node("flt").Out)
	if err := g5.InsertOnEdge("flt", "drv", n5); err != nil {
		t.Fatal(err)
	}
	if g4.Fingerprint() == g5.Fingerprint() {
		t.Error("same insertion at different points should differ")
	}
}

func TestFingerprintPositionIndependentGeneration(t *testing.T) {
	// Apply the same two insertions in opposite orders; the resulting flows
	// are identical designs and must deduplicate, even though FreshID
	// numbering differs.
	mk := func(firstEdge bool) *Graph {
		g := linearFlow(t)
		insert := func(from, to NodeID, name string) {
			n := NewNode(g.FreshID("gen"), name, OpFilterNull, g.Node(from).Out)
			if err := g.InsertOnEdge(from, to, n); err != nil {
				t.Fatal(err)
			}
		}
		if firstEdge {
			insert("src", "flt", "clean")
			insert("drv", "load", "clean")
		} else {
			insert("drv", "load", "clean")
			insert("src", "flt", "clean")
		}
		return g
	}
	if mk(true).Fingerprint() != mk(false).Fingerprint() {
		t.Error("order of independent pattern applications should not matter")
	}
}

// Property: clones always fingerprint identically; a random structural edit
// (node insertion on an edge) always changes the fingerprint.
func TestFingerprintCloneProperty(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%25)+3)
		c := g.Clone()
		if g.Fingerprint() != c.Fingerprint() {
			return false
		}
		edges := c.Edges()
		e := edges[rng.Intn(len(edges))]
		n := NewNode(c.FreshID("mut"), "mut", OpNoop, Schema{})
		if err := c.InsertOnEdge(e.From, e.To, n); err != nil {
			return false
		}
		return g.Fingerprint() != c.Fingerprint()
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func BenchmarkFingerprint(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	g := randomDAG(rng, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Uncached: Fingerprint would return the value cached on the graph.
		_ = g.fingerprintUncached()
	}
}

// Cone keys: the upstream-cone fingerprint of a node changes exactly when
// its own configuration or anything upstream of it changes — downstream
// edits leave it untouched, which is what lets the simulator splice cached
// upstream results into a modified flow.
func TestConeKeys(t *testing.T) {
	keysOf := func(g *Graph) map[NodeID]ConeKey {
		order, err := g.TopoOrder()
		if err != nil {
			t.Fatal(err)
		}
		keys := g.ConeKeys(order)
		out := make(map[NodeID]ConeKey, len(order))
		for i, id := range order {
			out[id] = keys[i]
		}
		return out
	}
	base := linearFlow(t)
	k0 := keysOf(base)

	// Insertion in the middle: upstream cones unchanged, the insertion point
	// and everything downstream dirty.
	g2 := base.Clone()
	n := NewNode(g2.FreshID("x"), "x", OpFilterNull, g2.Node("src").Out)
	if err := g2.InsertOnEdge("flt", "drv", n); err != nil {
		t.Fatal(err)
	}
	k2 := keysOf(g2)
	if k2["src"] != k0["src"] || k2["flt"] != k0["flt"] {
		t.Error("upstream cone keys should survive a downstream insertion")
	}
	if k2["drv"] == k0["drv"] || k2["load"] == k0["load"] {
		t.Error("nodes downstream of the insertion must get new cone keys")
	}

	// Selectivity is row-semantic and must dirty the downstream cone;
	// per-tuple cost is timing-only and must not.
	g3 := base.Clone()
	g3.MutableNode("flt").Cost.Selectivity = 0.123
	k3 := keysOf(g3)
	if k3["flt"] == k0["flt"] || k3["load"] == k0["load"] {
		t.Error("selectivity change should dirty the node and its downstream cone")
	}
	g4 := base.Clone()
	g4.MutableNode("flt").Cost.PerTuple *= 7
	k4 := keysOf(g4)
	if k4["load"] != k0["load"] {
		t.Error("timing-only cost change should not dirty cone keys")
	}
}

// fingerprintWL is the reference for Fingerprint's equality: the Jacobi
// Weisfeiler-Leman refinement over predecessors that Fingerprint ran before
// it became one topological pass. Every node starts from the hash of its
// canonical description; each of LongestPath rounds (at most 64) relabels
// every node from its previous label and the sorted previous labels of its
// predecessors; the result hashes the flow name and the sorted final labels.
func fingerprintWL(g *Graph) string {
	n := len(g.order)
	idx := make(map[NodeID]int, n)
	for i, id := range g.order {
		idx[id] = i
	}
	labels := make([]hash128, n)
	for i, id := range g.order {
		labels[i] = sum128([]byte(g.nodes[id].canonical()))
	}
	rounds := min(g.LongestPath(), 64)
	next := make([]hash128, n)
	var buf []byte
	var preds []hash128
	for r := 0; r < rounds; r++ {
		changed := false
		for i, id := range g.order {
			preds = preds[:0]
			for _, p := range g.pred[id] {
				preds = append(preds, labels[idx[p]])
			}
			sort.Slice(preds, func(a, b int) bool { return bytes.Compare(preds[a][:], preds[b][:]) < 0 })
			buf = append(append(buf[:0], labels[i][:]...), '<')
			for _, pl := range preds {
				buf = append(buf, pl[:]...)
			}
			next[i] = sum128(buf)
			changed = changed || next[i] != labels[i]
		}
		labels, next = next, labels
		if !changed {
			break
		}
	}
	sort.Slice(labels, func(a, b int) bool { return bytes.Compare(labels[a][:], labels[b][:]) < 0 })
	buf = append(append(buf[:0], g.Name...), '\n')
	for _, l := range labels {
		buf = append(buf, l[:]...)
	}
	sum := sum128(buf)
	return hex.EncodeToString(sum[:])
}

// samePartition checks that Fingerprint and fingerprintWL split the flows
// into the same equality classes, and returns the number of classes.
func samePartition(flows []*Graph) (int, error) {
	firstFP, firstWL := map[string]int{}, map[string]int{}
	for i, g := range flows {
		fp, wl := g.Fingerprint(), fingerprintWL(g)
		j, seenFP := firstFP[fp]
		k, seenWL := firstWL[wl]
		switch {
		case seenFP && !seenWL:
			return 0, fmt.Errorf("flow %d: Fingerprint equals flow %d's, the WL refinement matches no earlier flow", i, j)
		case seenWL && !seenFP:
			return 0, fmt.Errorf("flow %d: the WL refinement equals flow %d's, Fingerprint matches no earlier flow", i, k)
		case seenFP && j != k:
			return 0, fmt.Errorf("flow %d: Fingerprint equals flow %d's, the WL refinement flow %d's", i, j, k)
		case !seenFP:
			firstFP[fp], firstWL[wl] = i, i
		}
	}
	return len(firstFP), nil
}

// SamePartition exposes samePartition to the workload test in package
// etl_test, which needs the pattern implementations that import this
// package.
var SamePartition = samePartition

// anonymousDAG builds a random DAG whose operations after the source all
// look alike, so that small ones often coincide and the equality classes
// under test are not all singletons.
func anonymousDAG(rng *rand.Rand, n int) *Graph {
	g := New("anon")
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%d", i))
		kind := OpDerive
		if i == 0 {
			kind = OpExtract
		}
		g.MustAddNode(NewNode(ids[i], kind.String(), kind, s))
		if i == 0 {
			continue
		}
		g.MustAddEdge(ids[rng.Intn(i)], ids[i])
		if j := rng.Intn(i); rng.Intn(2) == 0 && !g.HasEdge(ids[j], ids[i]) {
			g.MustAddEdge(ids[j], ids[i])
		}
	}
	return g
}

// shuffledCopy rebuilds g with renamed node IDs, adding nodes and edges in
// random order: the same design reached through another generation order.
func shuffledCopy(rng *rand.Rand, g *Graph) *Graph {
	c := New(g.Name)
	rename := func(id NodeID) NodeID { return "s_" + id }
	for _, i := range rng.Perm(len(g.order)) {
		n := g.nodes[g.order[i]].Clone()
		n.ID = rename(n.ID)
		c.MustAddNode(n)
	}
	edges := g.Edges()
	for _, i := range rng.Perm(len(edges)) {
		c.MustAddEdge(rename(edges[i].From), rename(edges[i].To))
	}
	return c
}

// The one-pass fingerprint must induce the same equality on flows as the WL
// refinement: on random DAGs, their shuffled copies and a one-node edit of
// each, and on small look-alike DAGs that often coincide.
func TestFingerprintPartitionMatchesWL(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		g := randomDAG(rng, int(size%25)+3)
		edited := g.Clone()
		edges := edited.Edges()
		e := edges[rng.Intn(len(edges))]
		if err := edited.InsertOnEdge(e.From, e.To, NewNode(edited.FreshID("mut"), "mut", OpNoop, Schema{})); err != nil {
			t.Error(err)
			return false
		}
		flows := []*Graph{g, shuffledCopy(rng, g), edited, shuffledCopy(rng, edited)}
		for i := 0; i < 8; i++ {
			a := anonymousDAG(rng, 2+rng.Intn(4))
			flows = append(flows, a, shuffledCopy(rng, a))
		}
		if _, err := samePartition(flows); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// freshDigest is a node's digest computed without the memo.
func freshDigest(n *Node) hash128 { return sum128([]byte(n.canonical())) }

// checkDigestsFresh fails the test for every node of g whose memoized
// digest no longer matches its fields.
func checkDigestsFresh(t *testing.T, what string, g *Graph) {
	t.Helper()
	for _, n := range g.Nodes() {
		if n.digest() != freshDigest(n) {
			t.Errorf("%s: node %s has a stale digest", what, n.ID)
		}
	}
}

func TestMutableNodeRefreshesDigest(t *testing.T) {
	// Never cloned: MutableNode hands out the node itself and must drop its
	// memo.
	g := linearFlow(t)
	before := g.Fingerprint()
	n := g.MutableNode("flt")
	if n != g.Node("flt") {
		t.Fatal("a never-cloned graph should hand out its own node")
	}
	n.SetParam("predicate", "amount > 10")
	checkDigestsFresh(t, "owned, never cloned", g)
	if g.Fingerprint() == before {
		t.Error("editing an owned node left the fingerprint unchanged")
	}

	// Shared with the parent: the first MutableNode copies, the second finds
	// the copy owned and hands it out again.
	base := linearFlow(t)
	baseFP := base.Fingerprint()
	c := base.Clone()
	first := c.MutableNode("drv")
	if first == base.Node("drv") {
		t.Fatal("MutableNode did not unshare a node shared with the parent")
	}
	first.Parallelism = 4
	c.Fingerprint()
	second := c.MutableNode("drv")
	if second != first {
		t.Fatal("MutableNode copied a node the clone already owns")
	}
	second.Name = "derive_tax_v2"
	checkDigestsFresh(t, "shared, then owned", c)
	checkDigestsFresh(t, "parent", base)
	want := linearFlow(t)
	w := want.MutableNode("drv")
	w.Parallelism, w.Name = 4, "derive_tax_v2"
	if c.Fingerprint() != want.Fingerprint() {
		t.Error("the edited clone does not fingerprint like a flow built with the same edits")
	}
	if base.Fingerprint() != baseFP {
		t.Error("editing the clone changed the parent's fingerprint")
	}
}

func TestNodeCloneStartsWithoutDigest(t *testing.T) {
	g := linearFlow(t)
	g.Fingerprint()
	old := g.Node("drv")
	cp := old.Clone()
	if cp.dig.Load() != nil {
		t.Fatal("Clone copied the digest memo")
	}
	// ParallelizeTask's path: rename the copy right after cloning it.
	cp.ID = "par_1"
	cp.Name = old.Name + " (copy 1)"
	if cp.digest() == old.digest() || cp.digest() != freshDigest(cp) {
		t.Error("a renamed copy must get its own digest")
	}
}

// Clone is written field by field so that the digest memo stays behind; a
// field added to Node later must be added there too.
func TestNodeCloneCopiesEveryField(t *testing.T) {
	n := &Node{
		ID:          "a",
		Name:        "n",
		Kind:        OpDerive,
		Out:         NewSchema(Attribute{Name: "x", Type: TypeInt}),
		Params:      map[string]string{"k": "v"},
		Cost:        Cost{Startup: 1, PerTuple: 2, Selectivity: 3, FailureRate: 4, MemPerTuple: 5},
		Parallelism: 3,
		Generated:   true,
		PatternName: "p",
	}
	orig, cp := reflect.ValueOf(n).Elem(), reflect.ValueOf(n.Clone()).Elem()
	for i := 0; i < orig.NumField(); i++ {
		f := orig.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		if orig.Field(i).IsZero() {
			t.Fatalf("set %s in this test so that Clone's copy of it is checked", f.Name)
		}
		if !reflect.DeepEqual(orig.Field(i).Interface(), cp.Field(i).Interface()) {
			t.Errorf("Clone dropped field %s", f.Name)
		}
	}
}

func TestCopiedNodesStartWithoutDigest(t *testing.T) {
	src := diamondFlow(t)
	src.Fingerprint() // memoizes every source node's digest
	check := func(what string, g *Graph) {
		t.Helper()
		for _, n := range g.Nodes() {
			if n.dig.Load() != nil {
				t.Errorf("%s: the copy of %s carries a digest memo", what, n.ID)
			}
		}
	}
	sub, err := src.Subflow("piece", "split", "a", "merge")
	if err != nil {
		t.Fatal(err)
	}
	check("Subflow", sub)
	woven := New("host")
	if err := woven.Weave(src, "P"); err != nil {
		t.Fatal(err)
	}
	check("Weave", woven)
	merged := New("host")
	if err := merged.Merge(src); err != nil {
		t.Fatal(err)
	}
	check("Merge", merged)
}

// Evaluation workers fingerprint and cone-key clones that share nodes, so
// they fill the same digest memos concurrently. Run with -race.
func TestConcurrentFingerprintsOnSharedClones(t *testing.T) {
	build := func() []*Graph {
		base := randomDAG(rand.New(rand.NewSource(7)), 40)
		ids := base.NodeIDs()
		clones := make([]*Graph, 32)
		for i := range clones {
			clones[i] = base.Clone()
			if i%2 == 1 {
				clones[i].MutableNode(ids[i%len(ids)]).SetParam("variant", fmt.Sprint(i))
			}
		}
		return clones
	}
	type result struct {
		fp   string
		keys []ConeKey
	}
	compute := func(g *Graph) (result, error) {
		order, err := g.TopoOrder()
		if err != nil {
			return result{}, err
		}
		return result{g.Fingerprint(), g.ConeKeys(order)}, nil
	}
	// The reference comes from an identical construction on one goroutine,
	// so the memos of the clones below are still empty when the workers
	// start and they race to fill them.
	ref := build()
	want := make([]result, len(ref))
	for i, g := range ref {
		var err error
		if want[i], err = compute(g); err != nil {
			t.Fatal(err)
		}
	}
	clones := build()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range clones {
				i := (k + w) % len(clones)
				got, err := compute(clones[i])
				if err != nil || got.fp != want[i].fp || !reflect.DeepEqual(got.keys, want[i].keys) {
					t.Errorf("clone %d: fingerprint or cone keys differ from the sequential reference (err %v)", i, err)
				}
			}
		}()
	}
	wg.Wait()
}

// Importers may build a cyclic graph before Validate rejects it; its
// fingerprint must still be deterministic and independent of insertion
// order.
func TestFingerprintCyclicGraph(t *testing.T) {
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	mk := func(ids []NodeID, cyclic bool) *Graph {
		g := New("loop")
		for _, id := range ids {
			g.MustAddNode(NewNode(id, string(id), OpDerive, s))
		}
		g.MustAddEdge("a", "b")
		g.MustAddEdge("b", "c")
		if cyclic {
			g.MustAddEdge("c", "a")
		}
		return g
	}
	g := mk([]NodeID{"a", "b", "c"}, true)
	if _, err := g.TopoOrder(); !errors.Is(err, ErrCycle) {
		t.Fatalf("TopoOrder on a cycle: %v", err)
	}
	fp := g.Fingerprint()
	if again := g.fingerprintUncached(); again != fp {
		t.Error("the fingerprint of a cyclic graph is not deterministic")
	}
	if mk([]NodeID{"c", "b", "a"}, true).Fingerprint() != fp {
		t.Error("the fingerprint of a cyclic graph depends on insertion order")
	}
	if mk([]NodeID{"a", "b", "c"}, false).Fingerprint() == fp {
		t.Error("a cyclic graph fingerprints like its acyclic prefix")
	}
}
