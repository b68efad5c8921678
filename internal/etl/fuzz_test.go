package etl_test

import (
	"encoding/json"
	"slices"
	"testing"

	"poiesis/internal/etl"
	"poiesis/internal/workloads"
)

// FuzzGraphJSON drives the JSON flow decoder, which builds graphs through
// AddNode and AddEdge. Any input must either fail to decode or decode to a
// flow that validates, lints without panicking and survives a Marshal ->
// Unmarshal round trip with the same node IDs, edges and fingerprint.
func FuzzGraphJSON(f *testing.F) {
	for _, name := range workloads.Names() {
		g, _ := workloads.Get(name)
		b, err := json.Marshal(g)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, s := range []string{
		``,
		`{}`,
		`not json`,
		`{"name":"x","nodes":[{"id":"a","kind":"bogus"}]}`,
		`{"name":"x","nodes":[{"id":"a","kind":"extract"},{"id":"a","kind":"load"}]}`,
		`{"name":"x","nodes":[{"id":"a","kind":"extract"},{"id":"b","kind":"load"}],"edges":[{"from":"a","to":"c"}]}`,
		`{"name":"x","nodes":[{"id":"a","kind":"derive"},{"id":"b","kind":"derive"}],"edges":[{"from":"a","to":"b"},{"from":"b","to":"a"}]}`,
		`{"name":"x","nodes":[{"id":"a","kind":"extract"},{"id":"b","kind":"load"}],"edges":[{"from":"a","to":"b"},{"from":"a","to":"b"}]}`,
		`{"name":"x","nodes":[{"id":"","kind":"extract"}]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		var g etl.Graph
		if err := json.Unmarshal(b, &g); err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("decoded flow fails Validate: %v", err)
		}
		_ = etl.Lint(&g, nil)
		out, err := json.Marshal(&g)
		if err != nil {
			t.Fatalf("Marshal: %v", err)
		}
		var back etl.Graph
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("round trip does not decode: %v\n%s", err, out)
		}
		if !slices.Equal(back.NodeIDs(), g.NodeIDs()) || !slices.Equal(back.Edges(), g.Edges()) {
			t.Fatalf("round trip changed the structure:\n%s", out)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint:\n%s", out)
		}
	})
}
