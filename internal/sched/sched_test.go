package sched

import (
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"capscale/internal/blas"
	"capscale/internal/caps"
	"capscale/internal/hw"
	"capscale/internal/matrix"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

func TestNewPanicsOnBadWorkers(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	New(0)
}

func TestEveryLeafRunsOnce(t *testing.T) {
	var count atomic.Int64
	var a task.Arena
	mk := func() task.Ref {
		return a.Leaf(task.Work{Flops: 1, Run: func() { count.Add(1) }})
	}
	var leaves []task.Ref
	for i := 0; i < 100; i++ {
		leaves = append(leaves, mk())
	}
	root := a.Node(a.Seq(a.Par(leaves[:50]...), a.Par(leaves[50:]...)))
	m := New(4).Run(root)
	if count.Load() != 100 {
		t.Fatalf("ran %d leaves", count.Load())
	}
	if m.Leaves != 100 {
		t.Fatalf("metrics leaves %d", m.Leaves)
	}
	if m.Flops != 100 {
		t.Fatalf("metrics flops %v", m.Flops)
	}
}

func TestSeqOrdering(t *testing.T) {
	var order []int
	var a task.Arena
	mk := func(i int) task.Ref {
		return a.Leaf(task.Work{Run: func() { order = append(order, i) }})
	}
	New(4).Run(a.Node(a.Seq(mk(0), mk(1), mk(2), mk(3), mk(4))))
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestParallelismBounded(t *testing.T) {
	var inFlight, peak atomic.Int64
	var a task.Arena
	mk := func() task.Ref {
		return a.Leaf(task.Work{Run: func() {
			cur := inFlight.Add(1)
			for {
				p := peak.Load()
				if cur <= p || peak.CompareAndSwap(p, cur) {
					break
				}
			}
			for i := 0; i < 100000; i++ {
				_ = i * i
			}
			inFlight.Add(-1)
		}})
	}
	var leaves []task.Ref
	for i := 0; i < 64; i++ {
		leaves = append(leaves, mk())
	}
	New(2).Run(a.Node(a.Par(leaves...)))
	if peak.Load() > 2 {
		t.Fatalf("observed %d concurrent leaves with 2 workers", peak.Load())
	}
}

func TestWorkerAttribution(t *testing.T) {
	var a task.Arena
	var leaves []task.Ref
	for i := 0; i < 40; i++ {
		leaves = append(leaves, a.Leaf(task.Work{Run: func() {
			s := 0.0
			for i := 0; i < 200000; i++ {
				s += float64(i)
			}
			_ = s
		}}))
	}
	m := New(3).Run(a.Node(a.Par(leaves...)))
	total := int64(0)
	for _, c := range m.PerWorkerLeaves {
		total += c
	}
	if total != 40 {
		t.Fatalf("attributed %d leaves", total)
	}
	if u := m.Utilization(); u <= 0 || u > 1 {
		t.Fatalf("utilization %v", u)
	}
}

func TestPanicPropagates(t *testing.T) {
	var a task.Arena
	root := a.Node(a.Par(
		a.Leaf(task.Work{Run: func() {}}),
		a.Leaf(task.Work{Run: func() { panic("leaf exploded") }}),
	))
	defer func() {
		if v := recover(); v != "leaf exploded" {
			t.Fatalf("recovered %v", v)
		}
	}()
	New(2).Run(root)
}

func TestNilRunLeavesAreCounted(t *testing.T) {
	var a task.Arena
	m := New(2).Run(a.Node(a.Par(a.Leaf(task.Work{Flops: 5}), a.Leaf(task.Work{Flops: 7}))))
	if m.Leaves != 2 || m.Flops != 12 {
		t.Fatalf("metrics %+v", m)
	}
}

func TestRealSpeedupOnComputeBoundTree(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		t.Skip("single-CPU environment")
	}
	var a task.Arena
	work := func() task.Ref {
		return a.Leaf(task.Work{Run: func() {
			s := 0.0
			for i := 0; i < 3_000_000; i++ {
				s += float64(i%7) * 1.0001
			}
			_ = s
		}})
	}
	var leaves []task.Ref
	for i := 0; i < 16; i++ {
		leaves = append(leaves, work())
	}
	root := a.Node(a.Par(leaves...))
	t1 := New(1).Run(root).Wall
	t2 := New(2).Run(root).Wall
	if float64(t1)/float64(t2) < 1.2 {
		t.Logf("warning: 2-worker speedup only %.2fx (loaded machine?)", float64(t1)/float64(t2))
	}
}

// End-to-end: all three multipliers' trees computed by the real engine
// match the naive product.
func TestRealExecutionOfAllMultipliers(t *testing.T) {
	m := hw.HaswellE31225()
	rng := rand.New(rand.NewSource(9))
	n := 128
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)

	trees := map[string]func(c *matrix.Dense) *task.Node{
		"blas": func(c *matrix.Dense) *task.Node {
			return blas.Build(m, c, a, b, blas.Options{Workers: 3, WithMath: true})
		},
		"strassen": func(c *matrix.Dense) *task.Node {
			return strassen.Build(m, c, a, b, 3, strassen.Options{Cutover: 16, WithMath: true})
		},
		"winograd": func(c *matrix.Dense) *task.Node {
			return strassen.Build(m, c, a, b, 3, strassen.Options{Cutover: 16, Winograd: true, WithMath: true})
		},
		"caps": func(c *matrix.Dense) *task.Node {
			return caps.Build(m, c, a, b, 3, caps.Options{Cutover: 16, CutoffDepth: 2, WithMath: true})
		},
	}
	for name, build := range trees {
		c := matrix.New(n, n)
		New(3).Run(build(c))
		if !matrix.AlmostEqual(c, want, 1e-10) {
			t.Errorf("%s: real execution differs by %v", name, matrix.MaxAbsDiff(c, want))
		}
	}
}

// The real engine must produce the same numbers as serial execution of
// the same tree (determinism of the arithmetic under any schedule).
func TestRealMatchesSerialExecution(t *testing.T) {
	m := hw.HaswellE31225()
	rng := rand.New(rand.NewSource(10))
	n := 64
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)

	c1 := matrix.New(n, n)
	task.RunSerial(strassen.Build(m, c1, a, b, 2, strassen.Options{Cutover: 8, WithMath: true}))
	c2 := matrix.New(n, n)
	New(4).Run(strassen.Build(m, c2, a, b, 2, strassen.Options{Cutover: 8, WithMath: true}))
	if !matrix.Equal(c1, c2) {
		t.Fatal("parallel real execution differs from serial")
	}
}

// One pool's persistent workers must survive arbitrarily many runs and
// keep each run's metrics separate.
func TestPoolReuseAcrossRuns(t *testing.T) {
	p := New(2)
	defer p.Close()
	for run := 0; run < 20; run++ {
		var count atomic.Int64
		var a task.Arena
		var leaves []task.Ref
		for i := 0; i < 30; i++ {
			leaves = append(leaves, a.Leaf(task.Work{Flops: 2, Run: func() { count.Add(1) }}))
		}
		m := p.Run(a.Node(a.Seq(a.Par(leaves[:15]...), a.Par(leaves[15:]...))))
		if count.Load() != 30 || m.Leaves != 30 || m.Flops != 60 {
			t.Fatalf("run %d: count=%d metrics=%+v", run, count.Load(), m)
		}
	}
}

// A pool must recover from a panicking tree and run the next tree
// normally (the panic must not wedge the persistent workers).
func TestPoolSurvivesPanickedRun(t *testing.T) {
	p := New(2)
	defer p.Close()
	func() {
		defer func() { recover() }()
		var a task.Arena
		p.Run(a.Node(a.Par(
			a.Leaf(task.Work{Run: func() {}}),
			a.Leaf(task.Work{Run: func() { panic("boom") }}),
		)))
	}()
	var count atomic.Int64
	var a task.Arena
	m := p.Run(a.Node(a.Par(
		a.Leaf(task.Work{Run: func() { count.Add(1) }}),
		a.Leaf(task.Work{Run: func() { count.Add(1) }}),
	)))
	if count.Load() != 2 || m.Leaves != 2 {
		t.Fatalf("post-panic run broken: count=%d metrics=%+v", count.Load(), m)
	}
}

// After a leaf panics, subsequent leaves of the same Seq chain are
// skipped so the run drains instead of computing garbage.
func TestPanicSkipsSeqSuccessors(t *testing.T) {
	var ran atomic.Bool
	var a task.Arena
	root := a.Node(a.Seq(
		a.Leaf(task.Work{Run: func() { panic("first") }}),
		a.Leaf(task.Work{Run: func() { ran.Store(true) }}),
	))
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("no panic")
			}
		}()
		p := New(2)
		defer p.Close()
		p.Run(root)
	}()
	if ran.Load() {
		t.Fatal("Seq successor ran after panic")
	}
}

// Empty interior nodes (Seq()/Par() with no children) must complete
// without deadlocking the join logic.
func TestEmptyInteriorNodes(t *testing.T) {
	p := New(2)
	defer p.Close()
	var a task.Arena
	m := p.Run(a.Node(a.Seq(a.Par(), a.Seq(), a.Leaf(task.Work{Flops: 1}))))
	if m.Leaves != 1 || m.Flops != 1 {
		t.Fatalf("metrics %+v", m)
	}
}

// Concurrent Run calls on one pool are serialized, not interleaved
// into corrupt metrics.
func TestConcurrentRunCallsSerialize(t *testing.T) {
	p := New(2)
	defer p.Close()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var a task.Arena
			var leaves []task.Ref
			for i := 0; i < 50; i++ {
				leaves = append(leaves, a.Leaf(task.Work{Flops: 1, Run: func() {}}))
			}
			if m := p.Run(a.Node(a.Par(leaves...))); m.Leaves != 50 || m.Flops != 50 {
				t.Errorf("metrics %+v", m)
			}
		}()
	}
	wg.Wait()
}
