package pdi

import (
	"os"
	"testing"

	"poiesis/internal/etl"
)

// FuzzDecode feeds arbitrary documents to the .ktr decoder, which takes
// transformation uploads over the network. A document either fails to
// decode, or it decodes to a flow that etl.Lint finds nothing wrong with. It
// must never panic.
//
//	go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 10s ./internal/pdi
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile("testdata/pricing.ktr")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	for _, s := range []string{
		``, `<transformation/>`, `not xml`,
		`<transformation><step><name>a</name><type>TableInput</type></step><step><name>b</name><type>TableOutput</type></step><order><hop><from>a</from><to>b</to></hop></order></transformation>`,
		`<transformation><step><name>a</name><type>TableInput</type></step><order><hop><from>a</from><to>a</to></hop></order></transformation>`,
		`<transformation><step><name>a b</name><type>Dummy</type><copies>-2</copies></step></transformation>`,
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
	})
}
