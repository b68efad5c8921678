// Package viz renders the POIESIS visualizations in terminal-friendly ASCII
// and standalone SVG: the multidimensional scatter plot of alternative ETL
// flows (Fig. 4) and the relative-change bar graph against the initial flow
// (Fig. 5), including the drill-down into detailed composing metrics.
package viz

import (
	"fmt"
	"math"
	"strings"

	"poiesis/internal/measures"
)

// ScatterPoint is one design in the quality space.
type ScatterPoint struct {
	Label string
	// X, Y are the two plotted dimensions; Z (optional, NaN to omit) is
	// encoded as the marker glyph / radius.
	X, Y, Z float64
	// Skyline marks Pareto-frontier members, which render highlighted.
	Skyline bool
}

// ScatterConfig labels the plot.
type ScatterConfig struct {
	Title  string
	XLabel string
	YLabel string
	ZLabel string
	Width  int // characters (ASCII) — default 64
	Height int // rows (ASCII) — default 20
}

func (c ScatterConfig) withDefaults() ScatterConfig {
	if c.Width <= 0 {
		c.Width = 64
	}
	if c.Height <= 0 {
		c.Height = 20
	}
	return c
}

// ASCIIScatter renders the scatter plot as text: skyline members are '@',
// dominated designs '.', overlapping cells keep the skyline marker.
func ASCIIScatter(points []ScatterPoint, cfg ScatterConfig) string {
	cfg = cfg.withDefaults()
	var b strings.Builder
	if cfg.Title != "" {
		fmt.Fprintf(&b, "%s\n", cfg.Title)
	}
	if len(points) == 0 {
		b.WriteString("(no points)\n")
		return b.String()
	}
	minX, maxX := rangeOf(points, func(p ScatterPoint) float64 { return p.X })
	minY, maxY := rangeOf(points, func(p ScatterPoint) float64 { return p.Y })
	grid := make([][]byte, cfg.Height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cfg.Width))
	}
	for _, p := range points {
		col := scaleTo(p.X, minX, maxX, cfg.Width-1)
		row := cfg.Height - 1 - scaleTo(p.Y, minY, maxY, cfg.Height-1)
		mark := byte('.')
		if p.Skyline {
			mark = '@'
		}
		if grid[row][col] != '@' {
			grid[row][col] = mark
		}
	}
	fmt.Fprintf(&b, "%s\n", cfg.YLabel)
	for i, line := range grid {
		edge := "|"
		if i == len(grid)-1 {
			edge = "+"
		}
		fmt.Fprintf(&b, "  %s%s\n", edge, string(line))
	}
	fmt.Fprintf(&b, "   %s %s\n", strings.Repeat("-", cfg.Width-1), cfg.XLabel)
	fmt.Fprintf(&b, "  x:[%.3f,%.3f] y:[%.3f,%.3f]  @ skyline (%d)  . dominated (%d)\n",
		minX, maxX, minY, maxY, countSkyline(points), len(points)-countSkyline(points))
	return b.String()
}

// SVGScatter renders the scatter plot as a standalone SVG document. The
// optional Z dimension maps to circle radius, reproducing the paper's
// three-dimensional scatter (Fig. 4 plots performance, data quality and
// reliability).
func SVGScatter(points []ScatterPoint, cfg ScatterConfig) string {
	cfg = cfg.withDefaults()
	const w, h, pad = 640, 420, 48
	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `  <rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `  <text x="%d" y="20" font-size="14" text-anchor="middle">%s</text>`+"\n", w/2, esc(cfg.Title))
	// Axes.
	fmt.Fprintf(&b, `  <line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", pad, h-pad, w-pad, h-pad)
	fmt.Fprintf(&b, `  <line x1="%d" y1="%d" x2="%d" y2="%d" stroke="black"/>`+"\n", pad, pad, pad, h-pad)
	fmt.Fprintf(&b, `  <text x="%d" y="%d" font-size="11" text-anchor="middle">%s</text>`+"\n", w/2, h-10, esc(cfg.XLabel))
	fmt.Fprintf(&b, `  <text x="14" y="%d" font-size="11" text-anchor="middle" transform="rotate(-90 14 %d)">%s</text>`+"\n", h/2, h/2, esc(cfg.YLabel))
	if len(points) > 0 {
		minX, maxX := rangeOf(points, func(p ScatterPoint) float64 { return p.X })
		minY, maxY := rangeOf(points, func(p ScatterPoint) float64 { return p.Y })
		minZ, maxZ := 0.0, 0.0
		hasZ := false
		for _, p := range points {
			if !math.IsNaN(p.Z) {
				if !hasZ {
					minZ, maxZ, hasZ = p.Z, p.Z, true
				} else {
					minZ, maxZ = math.Min(minZ, p.Z), math.Max(maxZ, p.Z)
				}
			}
		}
		for _, p := range points {
			x := float64(pad) + unit(p.X, minX, maxX)*float64(w-2*pad)
			y := float64(h-pad) - unit(p.Y, minY, maxY)*float64(h-2*pad)
			r := 4.0
			if hasZ && !math.IsNaN(p.Z) {
				r = 3 + 6*unit(p.Z, minZ, maxZ)
			}
			fill, opacity := "#888888", "0.55"
			if p.Skyline {
				fill, opacity = "#d62728", "0.95"
			}
			fmt.Fprintf(&b, `  <circle cx="%.1f" cy="%.1f" r="%.1f" fill="%s" fill-opacity="%s"><title>%s</title></circle>`+"\n",
				x, y, r, fill, opacity, esc(p.Label))
		}
	}
	if cfg.ZLabel != "" {
		fmt.Fprintf(&b, `  <text x="%d" y="36" font-size="10" text-anchor="end">size: %s</text>`+"\n", w-pad, esc(cfg.ZLabel))
	}
	b.WriteString("</svg>\n")
	return b.String()
}

// BarRow is one bar of the Fig. 5 relative-change graph.
type BarRow struct {
	Label string
	// Pct is the improvement percentage (positive = better).
	Pct float64
	// Detail holds drill-down rows ("expands to more detailed composing
	// metrics").
	Detail []BarRow
}

// RelativeBars converts measure relative changes into bar rows, one bar per
// characteristic with measure-level drill-down.
func RelativeBars(rel []measures.CharRelChange) []BarRow {
	out := make([]BarRow, 0, len(rel))
	for _, c := range rel {
		row := BarRow{Label: string(c.Characteristic), Pct: c.ScoreDeltaPct}
		for _, m := range c.Measures {
			d := BarRow{Label: m.Name, Pct: m.ImprovementPct}
			for _, dd := range m.Detail {
				d.Detail = append(d.Detail, BarRow{Label: dd.Name, Pct: dd.ImprovementPct})
			}
			row.Detail = append(row.Detail, d)
		}
		out = append(out, row)
	}
	return out
}

// ASCIIBars renders the relative-change bars. expand selects labels whose
// drill-down is shown (nil = collapsed; the "*" entry expands everything),
// reproducing the click-to-expand interaction of P1.
func ASCIIBars(rows []BarRow, expand map[string]bool) string {
	var b strings.Builder
	maxAbs := 1.0
	for _, r := range rows {
		if a := math.Abs(r.Pct); a > maxAbs {
			maxAbs = a
		}
	}
	const halfWidth = 30
	for _, r := range rows {
		writeBar(&b, r, maxAbs, halfWidth, 0)
		if expand != nil && (expand["*"] || expand[r.Label]) {
			for _, d := range r.Detail {
				writeBar(&b, d, maxAbs, halfWidth, 1)
				for _, dd := range d.Detail {
					writeBar(&b, dd, maxAbs, halfWidth, 2)
				}
			}
		}
	}
	return b.String()
}

func writeBar(b *strings.Builder, r BarRow, maxAbs float64, halfWidth, indent int) {
	n := int(math.Round(math.Abs(r.Pct) / maxAbs * float64(halfWidth)))
	if n > halfWidth {
		n = halfWidth
	}
	neg := strings.Repeat(" ", halfWidth)
	pos := ""
	if r.Pct < 0 {
		neg = strings.Repeat(" ", halfWidth-n) + strings.Repeat("#", n)
	} else {
		pos = strings.Repeat("#", n)
	}
	fmt.Fprintf(b, "%-34s %s|%-*s %+7.1f%%\n",
		strings.Repeat("  ", indent)+r.Label, neg, halfWidth, pos, r.Pct)
}

// SVGBars renders the Fig. 5 relative-change bars as a standalone SVG
// document: one horizontal bar per characteristic, green for improvements
// and red for regressions, with the drill-down rows indented beneath when
// expand selects them.
func SVGBars(rows []BarRow, expand map[string]bool, title string) string {
	type flat struct {
		label  string
		pct    float64
		indent int
	}
	var items []flat
	for _, r := range rows {
		items = append(items, flat{r.Label, r.Pct, 0})
		if expand != nil && (expand["*"] || expand[r.Label]) {
			for _, d := range r.Detail {
				items = append(items, flat{d.Label, d.Pct, 1})
				for _, dd := range d.Detail {
					items = append(items, flat{dd.Label, dd.Pct, 2})
				}
			}
		}
	}
	const rowH, labelW, chartW, pad = 22, 240, 360, 16
	h := pad*2 + 28 + rowH*len(items)
	w := labelW + chartW + pad*2
	maxAbs := 1.0
	for _, it := range items {
		if a := math.Abs(it.pct); a > maxAbs {
			maxAbs = a
		}
	}
	mid := float64(labelW + pad + chartW/2)
	scale := float64(chartW/2-4) / maxAbs

	var b strings.Builder
	b.WriteString(`<?xml version="1.0" encoding="UTF-8"?>` + "\n")
	fmt.Fprintf(&b, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" viewBox="0 0 %d %d">`+"\n", w, h, w, h)
	fmt.Fprintf(&b, `  <rect width="%d" height="%d" fill="white"/>`+"\n", w, h)
	fmt.Fprintf(&b, `  <text x="%d" y="%d" font-size="13" text-anchor="middle">%s</text>`+"\n", w/2, pad+4, esc(title))
	fmt.Fprintf(&b, `  <line x1="%.1f" y1="%d" x2="%.1f" y2="%d" stroke="#999"/>`+"\n", mid, pad+16, mid, h-pad)
	for i, it := range items {
		y := pad + 28 + i*rowH
		fmt.Fprintf(&b, `  <text x="%d" y="%d" font-size="10">%s</text>`+"\n",
			pad+it.indent*14, y+13, esc(it.label))
		width := math.Abs(it.pct) * scale
		x := mid
		fill := "#2ca02c"
		if it.pct < 0 {
			x = mid - width
			fill = "#d62728"
		}
		fmt.Fprintf(&b, `  <rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" fill-opacity="0.8"/>`+"\n",
			x, y+3, width, rowH-8, fill)
		anchor, tx := "start", mid+width+4
		if it.pct < 0 {
			anchor, tx = "end", mid-width-4
		}
		fmt.Fprintf(&b, `  <text x="%.1f" y="%d" font-size="9" text-anchor="%s">%+.1f%%</text>`+"\n",
			tx, y+13, anchor, it.pct)
	}
	b.WriteString("</svg>\n")
	return b.String()
}

func rangeOf(points []ScatterPoint, f func(ScatterPoint) float64) (lo, hi float64) {
	lo, hi = f(points[0]), f(points[0])
	for _, p := range points[1:] {
		v := f(p)
		lo, hi = math.Min(lo, v), math.Max(hi, v)
	}
	return lo, hi
}

func unit(v, lo, hi float64) float64 {
	if hi <= lo {
		return 0.5
	}
	return (v - lo) / (hi - lo)
}

func scaleTo(v, lo, hi float64, max int) int {
	u := unit(v, lo, hi)
	i := int(math.Round(u * float64(max)))
	if i < 0 {
		i = 0
	}
	if i > max {
		i = max
	}
	return i
}

func countSkyline(points []ScatterPoint) int {
	n := 0
	for _, p := range points {
		if p.Skyline {
			n++
		}
	}
	return n
}

func esc(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
