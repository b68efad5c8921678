package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"poiesis"
)

// skyDoc is a skyline as the checks compare it: the dimensions and, per
// frontier design in order, its label and scores. Plan and skyline replies
// decode into it directly.
type skyDoc struct {
	Dims    []string   `json:"dims"`
	Skyline []skyEntry `json:"skyline"`
}

type skyEntry struct {
	Label  string             `json:"label"`
	Scores map[string]float64 `json:"scores"`
}

// docOf projects a planning result onto the fields the service serves.
func docOf(res *poiesis.Result) skyDoc {
	var d skyDoc
	for _, c := range res.Dims {
		d.Dims = append(d.Dims, string(c))
	}
	for _, a := range res.Skyline() {
		e := skyEntry{Label: a.Label(), Scores: map[string]float64{}}
		for _, c := range res.Dims {
			e.Scores[string(c)] = a.Report.Score(c)
		}
		d.Skyline = append(d.Skyline, e)
	}
	return d
}

// canonical renders the skyline one design per line, scores in dimension
// order with digits significant digits (-1: exact).
func (d skyDoc) canonical(digits int) string {
	var b strings.Builder
	b.WriteString(strings.Join(d.Dims, ","))
	for _, e := range d.Skyline {
		b.WriteString("\n")
		b.WriteString(e.Label)
		for _, dim := range d.Dims {
			b.WriteString("\t")
			b.WriteString(strconv.FormatFloat(e.Scores[dim], 'g', digits, 64))
		}
	}
	return b.String()
}

// goldenDigits rounds golden digests, so they survive floating-point
// differences across platforms but not a changed answer.
const goldenDigits = 10

func (d skyDoc) digest() string {
	sum := sha256.Sum256([]byte(d.canonical(goldenDigits)))
	return hex.EncodeToString(sum[:8])
}

// goldenEntry is one frozen skyline.
type goldenEntry struct {
	Skyline int    `json:"skyline"`
	Digest  string `json:"digest"`
}

//go:embed testdata/golden.json
var goldenJSON []byte

func loadGolden() (map[string]goldenEntry, error) {
	var g map[string]goldenEntry
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("parsing testdata/golden.json: %w", err)
	}
	return g, nil
}

// Golden keys: one per fig4-plan binding seed, and one per shared key and
// plan of the shared script (before and after selecting design 0).
func fig4GoldenKey(seed uint64) string { return fmt.Sprintf("fig4-plan/%s/seed=%d", fig4Flow, seed) }

func sharedGoldenKey(flow string, seed uint64, plans int) string {
	return fmt.Sprintf("shared/%s/seed=%d/plan%d", flow, seed, plans)
}

// directSkylines computes, without the service, what a session of the
// given inputs must be served: the skyline of its first plan, and of its
// second plan after selecting design 0.
func directSkylines(doc, flow string, scale int, seed uint64) ([2]skyDoc, error) {
	var out [2]skyDoc
	cfg, err := poiesis.ParseConfig([]byte(doc))
	if err != nil {
		return out, err
	}
	p, err := poiesis.PlannerFromConfig(cfg)
	if err != nil {
		return out, err
	}
	g, ok := poiesis.BuiltinFlow(flow)
	if !ok {
		return out, fmt.Errorf("unknown builtin flow %q", flow)
	}
	sess := poiesis.NewSession(p, g, poiesis.AutoBinding(g, scale, seed))
	for i := range out {
		if i > 0 {
			if _, err := sess.Select(0); err != nil {
				return out, err
			}
		}
		res, err := sess.Explore()
		if err != nil {
			return out, err
		}
		out[i] = docOf(res)
	}
	return out, nil
}

// checkServed compares the skylines served to the checked analysts with
// what they must be: analysts with fresh inputs against a direct
// recomputation, byte for byte; analysts with shared inputs against the
// golden digests. It returns the number of comparisons and mismatches.
func checkServed(spec serveSpec, results []scriptResult, golden map[string]goldenEntry) (checked, failed int, problems []string) {
	for _, res := range results {
		if !res.a.check || !res.complete {
			continue
		}
		var want [2]skyDoc
		if res.a.fresh {
			var err error
			if want, err = directSkylines(spec.doc, res.a.flow, spec.scale, res.a.seed); err != nil {
				checked++
				failed++
				problems = append(problems, fmt.Sprintf("recomputing %s seed %d: %v", res.a.flow, res.a.seed, err))
				continue
			}
		}
		for _, sb := range res.served {
			checked++
			var got skyDoc
			if err := json.Unmarshal(sb.body, &got); err != nil || sb.plans < 1 || sb.plans > 2 {
				failed++
				problems = append(problems, fmt.Sprintf("analyst %d: undecodable skyline reply", res.a.index))
				continue
			}
			if res.a.fresh {
				if got.canonical(-1) != want[sb.plans-1].canonical(-1) {
					failed++
					problems = append(problems, fmt.Sprintf("analyst %d (%s seed %d) plan %d: served skyline differs from the direct computation",
						res.a.index, res.a.flow, res.a.seed, sb.plans))
				}
				continue
			}
			key := sharedGoldenKey(res.a.flow, res.a.seed, sb.plans)
			if g, ok := golden[key]; !ok || g.Digest != got.digest() {
				failed++
				problems = append(problems, fmt.Sprintf("analyst %d: served skyline of %s does not match the golden digest", res.a.index, key))
			}
		}
	}
	return checked, failed, problems
}

// computeGolden plans every fixed input of fig4-plan and of the shared
// keys directly, for regenerating testdata/golden.json.
func computeGolden() (map[string]goldenEntry, error) {
	out := map[string]goldenEntry{}
	flow, _ := poiesis.BuiltinFlow(fig4Flow)
	p := poiesis.NewPlanner(nil, fig4Options())
	for s := uint64(1); s <= fig4Pool; s++ {
		res, err := p.Plan(flow, poiesis.TPCDSBinding(flow, fig4Scale, s))
		if err != nil {
			return nil, err
		}
		d := docOf(res)
		out[fig4GoldenKey(s)] = goldenEntry{Skyline: len(d.Skyline), Digest: d.digest()}
	}
	for _, k := range sharedKeys() {
		docs, err := directSkylines(sharedDoc, k.flow, sharedScale, k.seed)
		if err != nil {
			return nil, err
		}
		for i, d := range docs {
			out[sharedGoldenKey(k.flow, k.seed, i+1)] = goldenEntry{Skyline: len(d.Skyline), Digest: d.digest()}
		}
	}
	return out, nil
}
