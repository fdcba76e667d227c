package caps

import (
	"math/rand"
	"testing"
	"testing/quick"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/sim"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

func machine() *hw.Machine { return hw.HaswellE31225() }

func mulVia(t *testing.T, n, workers int, opt Options) (*matrix.Dense, *matrix.Dense) {
	t.Helper()
	m := machine()
	rng := rand.New(rand.NewSource(int64(n)*17 + int64(workers)))
	a := matrix.Rand(rng, n, n)
	b := matrix.Rand(rng, n, n)
	c := matrix.New(n, n)
	opt.WithMath = true
	root := Build(m, c, a, b, workers, opt)
	sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
	want := matrix.New(n, n)
	matrix.MulNaive(want, a, b)
	return c, want
}

func TestMatchesNaive(t *testing.T) {
	for _, n := range []int{2, 4, 8, 16, 64, 128, 256} {
		got, want := mulVia(t, n, 4, Options{Cutover: 8})
		if !matrix.AlmostEqual(got, want, 1e-10) {
			t.Fatalf("n=%d: CAPS differs by %v", n, matrix.MaxAbsDiff(got, want))
		}
	}
}

func TestMatchesNaiveAllCutoffDepths(t *testing.T) {
	for _, depth := range []int{-1, 1, 2, 3, 4} {
		got, want := mulVia(t, 128, 3, Options{Cutover: 8, CutoffDepth: depth})
		if !matrix.AlmostEqual(got, want, 1e-10) {
			t.Fatalf("cutoff depth %d: CAPS differs by %v", depth, matrix.MaxAbsDiff(got, want))
		}
	}
}

func TestOddSizeFallsBackToDense(t *testing.T) {
	got, want := mulVia(t, 63, 2, Options{Cutover: 8})
	if !matrix.AlmostEqual(got, want, 1e-10) {
		t.Fatal("odd dimension wrong")
	}
}

func TestBuildPanics(t *testing.T) {
	m := machine()
	panicked := func(f func()) (p bool) {
		defer func() { p = recover() != nil }()
		f()
		return
	}
	if !panicked(func() {
		Build(m, matrix.New(4, 4), matrix.New(4, 4), matrix.New(8, 8), 2, Options{})
	}) {
		t.Fatal("mismatched shapes accepted")
	}
	if !panicked(func() {
		Build(m, matrix.New(4, 4), matrix.New(4, 4), matrix.New(4, 4), 0, Options{})
	}) {
		t.Fatal("zero workers accepted")
	}
}

func TestSameArithmeticAsStrassen(t *testing.T) {
	// CAPS reorganizes the schedule but performs the same multiply and
	// recombination flops as classic Strassen; only copies differ.
	m := machine()
	n := 512
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	capsStats := task.Collect(Build(m, c, a, b, 4, Options{}))
	strStats := task.Collect(strassen.Build(m, c, a, b, 4, strassen.Options{}))
	if capsStats.FlopsByKind[task.KindBaseMul] != strStats.FlopsByKind[task.KindBaseMul] {
		t.Fatalf("mul flops differ: %v vs %v",
			capsStats.FlopsByKind[task.KindBaseMul], strStats.FlopsByKind[task.KindBaseMul])
	}
	if capsStats.FlopsByKind[task.KindAdd] != strStats.FlopsByKind[task.KindAdd] {
		t.Fatalf("add flops differ: %v vs %v",
			capsStats.FlopsByKind[task.KindAdd], strStats.FlopsByKind[task.KindAdd])
	}
}

func TestBFSStagesCopies(t *testing.T) {
	m := machine()
	n := 512
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	withBFS := task.Collect(Build(m, c, a, b, 4, Options{CutoffDepth: 2}))
	pureDFS := task.Collect(Build(m, c, a, b, 4, Options{CutoffDepth: -1}))
	// Copies carry no flops; count leaves by walking.
	bfsCopies := len(copyLeaves(Build(m, c, a, b, 4, Options{CutoffDepth: 2})))
	dfsCopies := len(copyLeaves(Build(m, c, a, b, 4, Options{CutoffDepth: -1})))
	if bfsCopies == 0 {
		t.Fatal("BFS levels staged no copies")
	}
	if dfsCopies != 0 {
		t.Fatalf("pure DFS staged %v copies", dfsCopies)
	}
	// And BFS needs more buffer memory.
	if withBFS.AllocPeak <= pureDFS.AllocPeak {
		t.Fatalf("BFS alloc %v not above DFS alloc %v", withBFS.AllocPeak, pureDFS.AllocPeak)
	}
}

func TestCommunicationBelowStrassen(t *testing.T) {
	// The headline mechanism: at 4 threads CAPS charges less remote
	// traffic than task-parallel Strassen.
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	capsRes := sim.Run(m, Build(m, c, a, b, 4, Options{}), sim.Config{Workers: 4})
	strRes := sim.Run(m, strassen.Build(m, c, a, b, 4, strassen.Options{}), sim.Config{Workers: 4})
	if capsRes.RemoteBytes >= strRes.RemoteBytes {
		t.Fatalf("CAPS remote %v not below Strassen remote %v",
			capsRes.RemoteBytes, strRes.RemoteBytes)
	}
}

func TestLoadBalanceAtFourWorkers(t *testing.T) {
	m := machine()
	n := 1024
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	res := sim.Run(m, Build(m, c, a, b, 4, Options{}), sim.Config{Workers: 4})
	minB, maxB := res.WorkerBusy[0], res.WorkerBusy[0]
	for _, v := range res.WorkerBusy {
		if v < minB {
			minB = v
		}
		if v > maxB {
			maxB = v
		}
	}
	if minB == 0 || maxB/minB > 1.5 {
		t.Fatalf("block ownership imbalanced: busy times %v", res.WorkerBusy)
	}
}

func TestOwnerMaskPartition(t *testing.T) {
	bd := &builder{Scaffold: strassen.Scaffold{Workers: 4}, bfsLevels: 2, leavesAtCutoff: 49}
	// Root owns everyone.
	if got := bd.ownerMask(0, 0); !got.Equal(task.MaskRange(0, 3)) {
		t.Fatalf("root mask %v", got)
	}
	// Cutoff-level units: block partition, monotone, all workers used.
	seen := make(map[int]bool)
	prev := -1
	for i := 0; i < 49; i++ {
		mask := bd.ownerMask(2, i)
		w := mask.Single()
		if w < 0 {
			t.Fatalf("unit %d mask %v not a single worker", i, mask)
		}
		if w < prev {
			t.Fatalf("ownership not monotone at unit %d", i)
		}
		prev = w
		seen[w] = true
	}
	if len(seen) != 4 {
		t.Fatalf("not all workers own units: %v", seen)
	}
}

func TestPropertyOwnerMaskDeepDepthsInheritAncestor(t *testing.T) {
	// Below the cutoff depth, a node's mask equals its cutoff-level
	// ancestor's — the invariant that keeps DFS subtrees pinned.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		levels := 1 + rng.Intn(3)
		units := 1
		for i := 0; i < levels; i++ {
			units *= 7
		}
		bd := &builder{Scaffold: strassen.Scaffold{Workers: 1 + rng.Intn(4)}, bfsLevels: levels, leavesAtCutoff: units}
		idx := rng.Intn(units)
		base := bd.ownerMask(levels, idx)
		// Descend a few random levels below the cutoff.
		deepIdx := idx
		depth := levels
		for i := 0; i < 1+rng.Intn(3); i++ {
			deepIdx = deepIdx*7 + rng.Intn(7)
			depth++
		}
		return bd.ownerMask(depth, deepIdx).Equal(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestPureDFSUnrestricted(t *testing.T) {
	bd := &builder{Scaffold: strassen.Scaffold{Workers: 4}, bfsLevels: 0, leavesAtCutoff: 1}
	if got := bd.ownerMask(3, 5); !got.IsEmpty() {
		t.Fatalf("pure DFS mask %v, want empty (unrestricted)", got)
	}
}

func TestDefaultCutoffDepthClipped(t *testing.T) {
	// 128 with cutover 64 has only one recursion level; BFS must clip.
	m := machine()
	n := 128
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, 4, Options{})
	stats := task.Collect(root)
	if stats.FlopsByKind[task.KindBaseMul] != strassen.MulFlopsTotal(n, strassen.DefaultCutover) {
		t.Fatal("clipped BFS changed arithmetic")
	}
}

func TestPropertyMatchesNaiveExactInts(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (1 + rng.Intn(5))
		workers := 1 + rng.Intn(4)
		depth := rng.Intn(4) - 1
		a := matrix.RandInts(rng, n, n, 3)
		b := matrix.RandInts(rng, n, n, 3)
		c := matrix.New(n, n)
		root := Build(m, c, a, b, workers, Options{Cutover: 2, CutoffDepth: depth, WithMath: true})
		sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true})
		want := matrix.New(n, n)
		matrix.MulNaive(want, a, b)
		return matrix.Equal(c, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyAllocGrowsWithCutoffDepth(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 128 << rng.Intn(2) // 128 or 256
		a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
		shallow := task.Collect(Build(m, c, a, b, 4, Options{CutoffDepth: 1, Cutover: 32}))
		deep := task.Collect(Build(m, c, a, b, 4, Options{CutoffDepth: 2, Cutover: 32}))
		return deep.AllocPeak >= shallow.AllocPeak
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 6}); err != nil {
		t.Fatal(err)
	}
}

// copyLeaves returns the demands of root's copy leaves in depth-first
// order.
func copyLeaves(root *task.Node) []task.Demand {
	t := root.Tree()
	var out []task.Demand
	var rec func(r task.Ref)
	rec = func(r task.Ref) {
		if t.IsLeaf(r) {
			if d := t.Demand(r); d.Kind == task.KindCopy {
				out = append(out, d)
			}
			return
		}
		for i := 0; i < t.NumChildren(r); i++ {
			rec(t.Child(r, i))
		}
	}
	rec(root.Ref())
	return out
}

func TestCopyAccountingUsesKernelFormulas(t *testing.T) {
	m := machine()
	n := 256
	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	root := Build(m, c, a, b, 4, Options{CutoffDepth: 1})
	total := 0.0
	for _, d := range copyLeaves(root) {
		total += d.DRAMBytes + d.L3Bytes
	}
	// One BFS level stages 4 quadrant copies and gathers 7 products of
	// 128², each copy moving 2·bytes (one read, one write).
	want := (4 + 7) * 2 * kernel.Bytes(128, 128)
	if total != want {
		t.Fatalf("copy traffic %v want %v", total, want)
	}
}

// A shape-only build draws its nodes, region lists and labels from a
// per-build arena: at most one allocation per four leaves (a node, a
// label and two region lists per leaf cost ~4.7 before the arena).
func TestShapeBuildAllocationBudget(t *testing.T) {
	m := machine()
	const n = 1024
	a, b, c := matrix.Shape(n, n), matrix.Shape(n, n), matrix.Shape(n, n)
	leaves := task.Collect(Build(m, c, a, b, 4, Options{})).Leaves
	allocs := testing.AllocsPerRun(3, func() { Build(m, c, a, b, 4, Options{}) })
	if allocs > float64(leaves)/4 {
		t.Errorf("%.0f allocations for %d leaves, budget %d", allocs, leaves, leaves/4)
	}
}
