package etl

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// canonical is the string form of the node's fingerprint description, built
// the straightforward way: appendCanonical must write exactly these bytes,
// since every fingerprint and every value derived from one (report
// fingerprints, plan-cache keys, snapshots, RandomSample draws) hashes them.
func (n *Node) canonical() string {
	keys := make([]string, 0, len(n.Params))
	for k := range n.Params {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(n.Kind.String())
	b.WriteByte('/')
	b.WriteString(n.Name)
	b.WriteByte('/')
	b.WriteString(n.Out.canonical())
	fmt.Fprintf(&b, "/p%d", n.Parallelism)
	for _, k := range keys {
		b.WriteByte('/')
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(n.Params[k])
	}
	return b.String()
}

// canonical is the string form of Schema.appendCanonical.
func (s Schema) canonical() string {
	parts := make([]string, len(s.Attrs))
	for i, a := range s.Attrs {
		parts[i] = a.String()
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// randomNode draws a node whose names share prefixes (so the sort compares
// past the first byte), whose schema and param count cross the stack
// buffers' sizes now and then, and whose parallelism may be negative.
func randomNode(rng *rand.Rand) *Node {
	word := func() string {
		w := []string{"a", "ab", "a:b", "b", "", "id", "id_2", "x,y", "ü"}
		return w[rng.Intn(len(w))] + strings.Repeat("z", rng.Intn(3)*rng.Intn(20))
	}
	var attrs []Attribute
	for range rng.Intn(3) * rng.Intn(25) {
		attrs = append(attrs, Attribute{Name: word(), Type: AttrType(rng.Intn(7)), Nullable: rng.Intn(2) == 0, Key: rng.Intn(3) == 0})
	}
	n := NewNode("n", word(), OpKind(rng.Intn(NumOpKinds+1)), NewSchema(attrs...))
	n.Parallelism = rng.Intn(40) - 5
	for range rng.Intn(3) * rng.Intn(12) {
		n.SetParam(word(), word())
	}
	return n
}

func TestAppendCanonicalMatchesStrings(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 5000; i++ {
		n := randomNode(rng)
		if got, want := string(n.appendCanonical([]byte("pre"))), "pre"+n.canonical(); got != want {
			t.Fatalf("node %d: appendCanonical %q, want %q", i, got, want)
		}
		if got, want := n.digest(), sum128([]byte(n.canonical())); got != want {
			t.Fatalf("node %d: digest differs from the hash of canonical()", i)
		}
	}
}

var digestSink *nodeDigests

// A node's digests cost the memo and nothing else while its description
// fits the stack buffers.
func TestDigestsAllocations(t *testing.T) {
	n := NewNode("ld", "load_sales", OpLoad, NewSchema(
		Attribute{Name: "item", Type: TypeInt, Key: true},
		Attribute{Name: "amount", Type: TypeFloat, Nullable: true},
		Attribute{Name: "state", Type: TypeString},
	))
	n.SetParam("target", "sales").SetParam(ParamGroupBy, "state").SetParam("schedule", "daily")
	if got := testing.AllocsPerRun(100, func() {
		n.dig.Store(nil)
		digestSink = n.digests()
	}); got > 1 {
		t.Errorf("digests allocates %.0f objects, want at most 1", got)
	}
}
