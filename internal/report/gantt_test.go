package report

import (
	"math"
	"strings"
	"testing"

	"capscale/internal/caps"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/sim"
	"capscale/internal/task"
)

func TestGanttRendersSpans(t *testing.T) {
	g := &Gantt{
		Title:   "g",
		Workers: 2,
		Width:   10,
		Spans: []sim.LeafSpan{
			{Worker: 0, Start: 0, End: 0.5, Kind: task.KindGEMM},
			{Worker: 1, Start: 0.5, End: 1.0, Kind: task.KindAdd},
		},
	}
	s := g.String()
	lines := strings.Split(s, "\n")
	if !strings.HasPrefix(lines[1], "  w0 ") || !strings.Contains(lines[1], "GGGGG") {
		t.Fatalf("worker 0 row wrong:\n%s", s)
	}
	if !strings.Contains(lines[2], "AAAAA") || !strings.HasPrefix(lines[2], "  w1 ") {
		t.Fatalf("worker 1 row wrong:\n%s", s)
	}
	// First half of worker 1 idle.
	if !strings.Contains(lines[2], ".....") {
		t.Fatalf("idle not rendered:\n%s", s)
	}
	if u := g.Utilization(); math.Abs(u-0.5) > 1e-12 {
		t.Fatalf("utilization %v", u)
	}
}

func TestGanttBadWorkerPanics(t *testing.T) {
	g := &Gantt{Workers: 1, Spans: []sim.LeafSpan{{Worker: 3, End: 1}}}
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_ = g.String()
}

func TestGanttEmpty(t *testing.T) {
	g := &Gantt{Workers: 2}
	if s := g.String(); !strings.Contains(s, "w0") {
		t.Fatal("empty gantt broken")
	}
}

func TestGanttFromRealSchedule(t *testing.T) {
	m := hw.HaswellE31225()
	n := 256
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := caps.Build(m, c, a, b, 4, caps.Options{Cutover: 32, CutoffDepth: 2})
	res := sim.Run(m, root, sim.Config{Workers: 4, RecordSchedule: true})
	if len(res.Schedule) != res.Leaves {
		t.Fatalf("schedule %d spans for %d leaves", len(res.Schedule), res.Leaves)
	}
	g := &Gantt{Title: "caps", Workers: 4, Spans: res.Schedule}
	s := g.String()
	for _, want := range []string{"w0", "w3", "B"} {
		if !strings.Contains(s, want) {
			t.Fatalf("gantt missing %q:\n%s", want, s)
		}
	}
	// Spans on one worker must not overlap (the scheduler guarantees
	// one leaf per worker at a time).
	for _, w := range []int{0, 1, 2, 3} {
		var last float64
		for _, sp := range res.Schedule {
			if sp.Worker != w {
				continue
			}
			if sp.Start < last-1e-12 {
				t.Fatalf("worker %d spans overlap at %v", w, sp.Start)
			}
			last = sp.End
		}
	}
}

func TestScheduleOffByDefault(t *testing.T) {
	m := hw.HaswellE31225()
	var a task.Arena
	root := a.Node(a.Leaf(task.Work{Kind: task.KindGEMM, Flops: 1e6}))
	res := sim.Run(m, root, sim.Config{Workers: 1})
	if res.Schedule != nil {
		t.Fatal("schedule recorded without RecordSchedule")
	}
}
