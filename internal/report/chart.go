package report

import (
	"fmt"
	"math"
	"strings"

	"capscale/internal/workload"
)

// Chart is a fixed-grid ASCII line chart: series of y-values over a
// shared ordered x-axis, one marker glyph per series. It renders the
// paper's figures as plots rather than tables.
type Chart struct {
	Title  string
	YLabel string
	// X holds the shared x coordinates (e.g. thread counts).
	X []float64
	// Series are plotted in order with markers o, x, *, +, #, @.
	Series []ChartSeries
	// Height is the plot rows (default 12); Width the plot columns
	// (default 56).
	Height, Width int
}

// ChartSeries is one plotted line.
type ChartSeries struct {
	Name string
	Y    []float64
}

var chartMarkers = []byte{'o', 'x', '*', '+', '#', '@'}

// String renders the chart. It panics on inconsistent series lengths
// (a renderer bug, not an input condition).
func (c *Chart) String() string {
	h, w := c.Height, c.Width
	if h <= 0 {
		h = 12
	}
	if w <= 0 {
		w = 56
	}
	for _, s := range c.Series {
		if len(s.Y) != len(c.X) {
			panic(fmt.Sprintf("report: series %q has %d points for %d x-values", s.Name, len(s.Y), len(c.X)))
		}
	}

	lo, hi := math.Inf(1), math.Inf(-1)
	for _, s := range c.Series {
		for _, v := range s.Y {
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if hi == lo {
		hi = lo + 1
	}
	// Pad the range slightly so extremes stay inside the grid.
	pad := (hi - lo) * 0.05
	lo, hi = lo-pad, hi+pad

	grid := make([][]byte, h)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", w))
	}
	xcol := func(i int) int {
		if len(c.X) == 1 {
			return w / 2
		}
		return i * (w - 1) / (len(c.X) - 1)
	}
	yrow := func(v float64) int {
		r := int(math.Round((hi - v) / (hi - lo) * float64(h-1)))
		if r < 0 {
			r = 0
		}
		if r >= h {
			r = h - 1
		}
		return r
	}

	for si, s := range c.Series {
		marker := chartMarkers[si%len(chartMarkers)]
		// Connect consecutive points with interpolated dots, then put
		// markers on top.
		for i := 1; i < len(s.Y); i++ {
			c0, r0 := xcol(i-1), yrow(s.Y[i-1])
			c1, r1 := xcol(i), yrow(s.Y[i])
			steps := c1 - c0
			for st := 0; st <= steps; st++ {
				col := c0 + st
				frac := 0.0
				if steps > 0 {
					frac = float64(st) / float64(steps)
				}
				row := int(math.Round(float64(r0) + frac*float64(r1-r0)))
				if grid[row][col] == ' ' {
					grid[row][col] = '.'
				}
			}
		}
		for i, v := range s.Y {
			grid[yrow(v)][xcol(i)] = marker
		}
	}

	var sb strings.Builder
	if c.Title != "" {
		sb.WriteString(c.Title)
		sb.WriteByte('\n')
	}
	for r := 0; r < h; r++ {
		val := hi - (hi-lo)*float64(r)/float64(h-1)
		fmt.Fprintf(&sb, "%9.2f |%s\n", val, string(grid[r]))
	}
	sb.WriteString(strings.Repeat(" ", 10) + "+" + strings.Repeat("-", w) + "\n")
	// X tick labels, spread under their columns.
	ticks := []byte(strings.Repeat(" ", w+11))
	for i, x := range c.X {
		label := trimFloat(x)
		col := 11 + xcol(i)
		copy(ticks[min(col, len(ticks)-len(label)):], label)
	}
	sb.Write(ticks)
	sb.WriteByte('\n')
	for si, s := range c.Series {
		fmt.Fprintf(&sb, "  %c %s\n", chartMarkers[si%len(chartMarkers)], s.Name)
	}
	if c.YLabel != "" {
		fmt.Fprintf(&sb, "  y: %s\n", c.YLabel)
	}
	return sb.String()
}

func trimFloat(v float64) string {
	if v == math.Trunc(v) {
		return fmt.Sprintf("%d", int(v))
	}
	return fmt.Sprintf("%g", v)
}

// PowerScalingChart plots one algorithm's power-vs-threads curves per
// problem size — the graphical form of Figs. 4–6.
func PowerScalingChart(mx *workload.Matrix, alg workload.Algorithm, figNo int) *Chart {
	ch := &Chart{
		Title:  fmt.Sprintf("Figure %d — %s power scaling", figNo, alg),
		YLabel: "average watts (PKG+DRAM)",
	}
	for _, p := range mx.Cfg.Threads {
		ch.X = append(ch.X, float64(p))
	}
	for _, n := range mx.Cfg.Sizes {
		s := ChartSeries{Name: fmt.Sprintf("N=%d", n)}
		for _, p := range mx.Cfg.Threads {
			s.Y = append(s.Y, mx.Get(alg, n, p).WattsTotal())
		}
		ch.Series = append(ch.Series, s)
	}
	return ch
}

// ScalingChart plots the Fig. 7 energy-performance scaling S of every
// algorithm at one problem size, with the linear threshold as its own
// series.
func ScalingChart(mx *workload.Matrix, n int) *Chart {
	ch := &Chart{
		Title:  fmt.Sprintf("Figure 7 — energy performance scaling, N=%d", n),
		YLabel: "S = EP_p / EP_1 (above the linear line = superlinear)",
	}
	for _, p := range mx.Cfg.Threads {
		ch.X = append(ch.X, float64(p))
	}
	linear := ChartSeries{Name: "linear threshold"}
	for _, p := range mx.Cfg.Threads {
		linear.Y = append(linear.Y, float64(p))
	}
	ch.Series = append(ch.Series, linear)
	for _, alg := range nodeAlgorithms(mx) {
		series := mx.ScalingSeries(alg, n)
		ch.Series = append(ch.Series, ChartSeries{Name: alg.String(), Y: series.S})
	}
	return ch
}

// SlowdownChart plots Fig. 3: slowdown vs threads, one series per
// algorithm and size.
func SlowdownChart(mx *workload.Matrix) *Chart {
	ch := &Chart{
		Title:  "Figure 3 — Strassen/CAPS slowdown vs OpenBLAS",
		YLabel: "T_alg / T_OpenBLAS",
	}
	for _, p := range mx.Cfg.Threads {
		ch.X = append(ch.X, float64(p))
	}
	for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
		for _, n := range mx.Cfg.Sizes {
			s := ChartSeries{Name: fmt.Sprintf("%s N=%d", alg, n)}
			for _, p := range mx.Cfg.Threads {
				s.Y = append(s.Y, mx.Slowdown(alg, n, p))
			}
			ch.Series = append(ch.Series, s)
		}
	}
	return ch
}
