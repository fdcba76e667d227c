package report

import (
	"fmt"
	"strings"

	"capscale/internal/sim"
	"capscale/internal/task"
)

// Gantt renders a simulated schedule as one text row per worker, time
// left to right, one glyph per leaf kind — the view that makes the
// paper's Fig. 2 contrast (depth-first vs breadth-first traversal)
// visible as actual core occupancy.
//
// Glyphs: G packed GEMM, B base-case multiply, A addition, C copy,
// o overhead, '.' idle.
type Gantt struct {
	Title   string
	Workers int
	Spans   []sim.LeafSpan
	// Width is the time axis resolution in characters (default 72).
	Width int
}

var ganttGlyphs = map[task.Kind]byte{
	task.KindGEMM:     'G',
	task.KindBaseMul:  'B',
	task.KindAdd:      'A',
	task.KindCopy:     'C',
	task.KindOverhead: 'o',
}

// String renders the chart. Overlapping spans on one worker indicate a
// scheduler bug and panic.
func (g *Gantt) String() string {
	w := g.Width
	if w <= 0 {
		w = 72
	}
	end := 0.0
	for _, s := range g.Spans {
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 {
		end = 1
	}
	rows := make([][]byte, g.Workers)
	for i := range rows {
		rows[i] = []byte(strings.Repeat(".", w))
	}
	col := func(t float64) int {
		c := int(t / end * float64(w))
		if c >= w {
			c = w - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, s := range g.Spans {
		if s.Worker < 0 || s.Worker >= g.Workers {
			panic(fmt.Sprintf("report: span on worker %d of %d", s.Worker, g.Workers))
		}
		glyph, ok := ganttGlyphs[s.Kind]
		if !ok {
			glyph = '?'
		}
		for c := col(s.Start); c <= col(s.End-1e-15); c++ {
			rows[s.Worker][c] = glyph
		}
	}
	var sb strings.Builder
	if g.Title != "" {
		sb.WriteString(g.Title)
		sb.WriteByte('\n')
	}
	for i, row := range rows {
		fmt.Fprintf(&sb, "  w%-2d |%s|\n", i, string(row))
	}
	fmt.Fprintf(&sb, "       0%s%.4fs\n", strings.Repeat(" ", w-8), end)
	sb.WriteString("  G gemm  B basemul  A add  C copy  . idle\n")
	return sb.String()
}

// Utilization returns the schedule's busy fraction, for captions.
func (g *Gantt) Utilization() float64 {
	end := 0.0
	busy := 0.0
	for _, s := range g.Spans {
		busy += s.End - s.Start
		if s.End > end {
			end = s.End
		}
	}
	if end == 0 || g.Workers == 0 {
		return 0
	}
	return busy / (end * float64(g.Workers))
}
