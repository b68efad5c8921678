package etl

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

// topoSortSliceOracle is Kahn's algorithm as it was before the ready list
// became a heap: the ready list is re-sorted by insertion position before
// every pop. The heap must emit the same order.
func topoSortSliceOracle(g *Graph) ([]NodeID, error) {
	indeg := make(map[NodeID]int, len(g.nodes))
	for _, id := range g.order {
		indeg[id] = len(g.pred[id])
	}
	pos := make(map[NodeID]int, len(g.order))
	for i, id := range g.order {
		pos[id] = i
	}
	var ready []NodeID
	for _, id := range g.order {
		if indeg[id] == 0 {
			ready = append(ready, id)
		}
	}
	var out []NodeID
	for len(ready) > 0 {
		sort.Slice(ready, func(i, j int) bool { return pos[ready[i]] < pos[ready[j]] })
		id := ready[0]
		ready = ready[1:]
		out = append(out, id)
		for _, s := range g.succ[id] {
			indeg[s]--
			if indeg[s] == 0 {
				ready = append(ready, s)
			}
		}
	}
	if len(out) != len(g.nodes) {
		return nil, ErrCycle
	}
	return out, nil
}

// componentsOracle is the depth-first Components that the union-find
// replaced.
func componentsOracle(g *Graph) int {
	seen := map[NodeID]bool{}
	n := 0
	for _, id := range g.order {
		if seen[id] {
			continue
		}
		n++
		stack := []NodeID{id}
		seen[id] = true
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, nb := range append(g.Succ(cur), g.Pred(cur)...) {
				if !seen[nb] {
					seen[nb] = true
					stack = append(stack, nb)
				}
			}
		}
	}
	return n
}

// CheckGraphPassOracles compares the heap topological sort and the
// union-find Components with their oracles on g. It is exported to the
// workload test in package etl_test.
func CheckGraphPassOracles(g *Graph) error {
	got, gerr := g.topoSortUncached()
	want, werr := topoSortSliceOracle(g)
	if (gerr == nil) != (werr == nil) {
		return fmt.Errorf("topo sort error %v, oracle %v", gerr, werr)
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("topo order %v, oracle %v", got, want)
	}
	if c, w := g.Components(), componentsOracle(g); c != w {
		return fmt.Errorf("components %d, oracle %d", c, w)
	}
	return nil
}

// shuffledDAG builds a random DAG whose insertion order is unrelated to its
// topological order: nodes get a random rank, are inserted in another random
// order, and edges only go from lower to higher rank. Some nodes stay
// isolated, so graphs have several components.
func shuffledDAG(rng *rand.Rand, n int) *Graph {
	g := New("shuffled")
	s := NewSchema(Attribute{Name: "x", Type: TypeInt})
	ids := make([]NodeID, n)
	for i := range ids {
		ids[i] = NodeID(fmt.Sprintf("n%d", i))
	}
	for _, i := range rng.Perm(n) {
		g.MustAddNode(NewNode(ids[i], string(ids[i]), OpDerive, s))
	}
	for e := rng.Intn(2 * n); e > 0; e-- {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		if !g.HasEdge(ids[a], ids[b]) {
			g.MustAddEdge(ids[a], ids[b])
		}
	}
	return g
}

func TestTopoSortHeapMatchesSortSliceOracle(t *testing.T) {
	prop := func(seed int64, size uint8) bool {
		g := shuffledDAG(rand.New(rand.NewSource(seed)), int(size%60)+1)
		if err := CheckGraphPassOracles(g); err != nil {
			t.Log(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	for seed := int64(0); seed < 50; seed++ {
		g := randomDAG(rand.New(rand.NewSource(seed)), 30)
		if err := CheckGraphPassOracles(g); err != nil {
			t.Fatalf("randomDAG seed %d: %v", seed, err)
		}
	}
}

func TestTopoSortHeapCycle(t *testing.T) {
	g := shuffledDAG(rand.New(rand.NewSource(1)), 6)
	g.MustAddEdge("n5", "n0")
	g.MustAddEdge("n0", "n5")
	if err := CheckGraphPassOracles(g); err != nil {
		t.Fatal(err)
	}
	if _, err := g.topoSortUncached(); err != ErrCycle {
		t.Fatalf("err = %v, want ErrCycle", err)
	}
}
