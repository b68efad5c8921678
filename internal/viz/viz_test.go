package viz

import (
	"math"
	"strings"
	"testing"

	"poiesis/internal/measures"
)

func pts() []ScatterPoint {
	return []ScatterPoint{
		{Label: "initial", X: 0.5, Y: 0.5, Z: 0.5},
		{Label: "alt1", X: 0.8, Y: 0.4, Z: 0.6, Skyline: true},
		{Label: "alt2", X: 0.3, Y: 0.9, Z: 0.7, Skyline: true},
		{Label: "alt3", X: 0.2, Y: 0.2, Z: 0.1},
	}
}

func TestASCIIScatter(t *testing.T) {
	s := ASCIIScatter(pts(), ScatterConfig{
		Title: "alternatives", XLabel: "performance", YLabel: "data quality",
	})
	if !strings.Contains(s, "alternatives") {
		t.Error("title missing")
	}
	if !strings.Contains(s, "@") || !strings.Contains(s, ".") {
		t.Error("markers missing")
	}
	if !strings.Contains(s, "performance") || !strings.Contains(s, "data quality") {
		t.Error("axis labels missing")
	}
	if !strings.Contains(s, "@ skyline (2)") {
		t.Errorf("legend missing:\n%s", s)
	}
}

func TestASCIIScatterEmpty(t *testing.T) {
	s := ASCIIScatter(nil, ScatterConfig{Title: "t"})
	if !strings.Contains(s, "(no points)") {
		t.Error("empty plot not handled")
	}
}

func TestASCIIScatterSinglePoint(t *testing.T) {
	// Degenerate ranges must not panic or divide by zero.
	s := ASCIIScatter([]ScatterPoint{{Label: "only", X: 1, Y: 1, Skyline: true}},
		ScatterConfig{Width: 10, Height: 5})
	if !strings.Contains(s, "@") {
		t.Error("single point not plotted")
	}
}

func TestSVGScatter(t *testing.T) {
	s := SVGScatter(pts(), ScatterConfig{
		Title: "alts", XLabel: "perf", YLabel: "dq", ZLabel: "reliability",
	})
	if !strings.HasPrefix(s, `<?xml`) || !strings.Contains(s, "<svg") {
		t.Error("not an SVG document")
	}
	if strings.Count(s, "<circle") != 4 {
		t.Errorf("circles = %d", strings.Count(s, "<circle"))
	}
	if !strings.Contains(s, "#d62728") {
		t.Error("skyline highlight missing")
	}
	if !strings.Contains(s, "reliability") {
		t.Error("z legend missing")
	}
	// Tooltips carry labels.
	if !strings.Contains(s, "<title>alt1</title>") {
		t.Error("tooltip missing")
	}
}

func TestSVGEscaping(t *testing.T) {
	s := SVGScatter([]ScatterPoint{{Label: `a<b>&"c`, X: 1, Y: 1}}, ScatterConfig{})
	if strings.Contains(s, `a<b>`) {
		t.Error("label not escaped")
	}
	if !strings.Contains(s, "a&lt;b&gt;&amp;&quot;c") {
		t.Error("escaped label missing")
	}
}

func relFixture() []measures.CharRelChange {
	return []measures.CharRelChange{
		{
			Characteristic: measures.Performance,
			ScoreDeltaPct:  25,
			Measures: []measures.RelChange{
				{Name: measures.MCycleTime, DeltaPct: -20, ImprovementPct: 20,
					Detail: []measures.RelChange{
						{Name: "first_pass_time", DeltaPct: -22, ImprovementPct: 22},
					}},
			},
		},
		{
			Characteristic: measures.Manageability,
			ScoreDeltaPct:  -10,
			Measures: []measures.RelChange{
				{Name: measures.MLongestPath, DeltaPct: 15, ImprovementPct: -15},
			},
		},
	}
}

func TestRelativeBars(t *testing.T) {
	rows := RelativeBars(relFixture())
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Label != "performance" || rows[0].Pct != 25 {
		t.Errorf("row0 = %+v", rows[0])
	}
	if len(rows[0].Detail) != 1 || rows[0].Detail[0].Pct != 20 {
		t.Errorf("drill-down = %+v", rows[0].Detail)
	}
	if len(rows[0].Detail[0].Detail) != 1 {
		t.Error("second-level drill-down missing")
	}
}

func TestASCIIBarsCollapsedAndExpanded(t *testing.T) {
	rows := RelativeBars(relFixture())
	collapsed := ASCIIBars(rows, nil)
	if !strings.Contains(collapsed, "performance") || !strings.Contains(collapsed, "+25.0%") {
		t.Errorf("collapsed bars:\n%s", collapsed)
	}
	if strings.Contains(collapsed, measures.MCycleTime) {
		t.Error("collapsed output leaked drill-down")
	}
	expanded := ASCIIBars(rows, map[string]bool{"performance": true})
	if !strings.Contains(expanded, measures.MCycleTime) {
		t.Error("expansion missing")
	}
	if strings.Contains(expanded, measures.MLongestPath) {
		t.Error("unexpanded characteristic leaked detail")
	}
	all := ASCIIBars(rows, map[string]bool{"*": true})
	if !strings.Contains(all, measures.MLongestPath) || !strings.Contains(all, "first_pass_time") {
		t.Error("expand-all missing details")
	}
	// Negative bars render on the left side of the axis.
	if !strings.Contains(all, "#|") {
		t.Errorf("negative bar missing:\n%s", all)
	}
}

func TestSVGBars(t *testing.T) {
	rows := RelativeBars(relFixture())
	s := SVGBars(rows, nil, "Relative change")
	if !strings.Contains(s, "<svg") || !strings.Contains(s, "Relative change") {
		t.Error("not an SVG bars document")
	}
	// One bar rect per top-level row when collapsed.
	if strings.Count(s, "<rect") != 1+2 { // background + 2 bars
		t.Errorf("rects = %d", strings.Count(s, "<rect"))
	}
	// Improvement green, regression red.
	if !strings.Contains(s, "#2ca02c") || !strings.Contains(s, "#d62728") {
		t.Error("bar colours missing")
	}
	expanded := SVGBars(rows, map[string]bool{"*": true}, "t")
	if strings.Count(expanded, "<rect") <= strings.Count(s, "<rect") {
		t.Error("expansion did not add bars")
	}
	if !strings.Contains(expanded, "first_pass_time") {
		t.Error("drill-down label missing")
	}
}

func TestScaleToBounds(t *testing.T) {
	if scaleTo(5, 0, 10, 10) != 5 {
		t.Error("midpoint")
	}
	if scaleTo(-1, 0, 10, 10) != 0 || scaleTo(11, 0, 10, 10) != 10 {
		t.Error("clamping")
	}
	if scaleTo(3, 3, 3, 10) != 5 {
		t.Error("degenerate range should centre")
	}
	if got := unit(1, 1, 1); got != 0.5 {
		t.Errorf("unit degenerate = %f", got)
	}
	_ = math.NaN() // keep math import for Z tests readability
}
