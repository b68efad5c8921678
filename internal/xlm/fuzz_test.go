package xlm

import (
	"os"
	"testing"

	"poiesis/internal/etl"
)

// FuzzDecode feeds arbitrary documents to the xLM decoder, which takes flow
// uploads over the network. A document either fails to decode, or it decodes
// to a flow that etl.Lint finds nothing wrong with and that survives an
// Encode → Decode round trip with the same fingerprint. It must never panic.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/xlm
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/purchases.xlm")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range []string{
		``, `<xlm/>`, `not xml`,
		`<xlm><design name="x"><node id="a" type="extract"/><node id="b" type="load"/><edge from="a" to="b"/></design></xlm>`,
		`<xlm><design name="x"><node id="a" type="extract"/><node id="b" type="load"/><edge from="b" to="a"/></design></xlm>`,
		`<xlm><design name="x"><node id="a" type="bogus"/></design></xlm>`,
		`<xlm><design name="x"><node id="a" type="extract"/><node id="a" type="load"/></design></xlm>`,
		`<xlm><design name="x"><node id="a" type="extract" parallelism="-3"><cost selectivity="NaN"/></node></design></xlm>`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		g, err := Decode(b)
		if err != nil {
			return
		}
		if ds := etl.Lint(g, nil); len(ds) > 0 {
			t.Fatalf("decoded flow fails Lint: %v", ds)
		}
		out, err := Encode(g)
		if err != nil {
			t.Fatalf("Encode: %v", err)
		}
		back, err := Decode(out)
		if err != nil {
			t.Fatalf("round trip does not decode: %v\n%s", err, out)
		}
		if back.Fingerprint() != g.Fingerprint() {
			t.Fatalf("round trip changed the fingerprint:\n%s", out)
		}
	})
}
