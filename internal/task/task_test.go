package task

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if KindGEMM.String() != "gemm" || KindAdd.String() != "add" {
		t.Fatalf("kind names wrong: %v %v", KindGEMM, KindAdd)
	}
	if Kind(99).String() != "Kind(99)" {
		t.Fatalf("out of range kind: %v", Kind(99))
	}
}

func TestRegionsUnique(t *testing.T) {
	var r Regions
	seen := make(map[RegionID]bool)
	for i := 0; i < 1000; i++ {
		id := r.New()
		if seen[id] {
			t.Fatalf("duplicate region id %d", id)
		}
		seen[id] = true
	}
	if r.Count() != 1000 {
		t.Fatalf("count %d", r.Count())
	}
}

func TestNodePredicates(t *testing.T) {
	var a Arena
	l := a.Leaf(Work{Kind: KindGEMM, Flops: 1})
	s, p := a.Seq(l), a.Par(l)
	tr := a.Node(p).Tree()
	if !tr.IsLeaf(l) || tr.IsSeq(l) || tr.NumChildren(l) != 0 {
		t.Fatal("leaf predicates")
	}
	if !tr.IsSeq(s) || tr.IsLeaf(s) || tr.NumChildren(s) != 1 {
		t.Fatal("seq predicates")
	}
	if tr.IsLeaf(p) || tr.IsSeq(p) || tr.Child(p, 0) != l {
		t.Fatal("par predicates")
	}
}

func TestAffinityAndAlloc(t *testing.T) {
	var a Arena
	n := a.WithAlloc(a.WithAffinityMask(a.Seq(), MaskOfBits(0b1010)), 512)
	tr := a.Node(n).Tree()
	if tr.Affinity(n).LowBits() != 0b1010 || !tr.Affinity(n).Equal(MaskOf(1, 3)) {
		t.Fatalf("affinity %v", tr.Affinity(n))
	}
	if tr.AllocBytes(n) != 512 {
		t.Fatalf("alloc %v", tr.AllocBytes(n))
	}
	big := a.WithAffinityMask(a.Seq(), SingleWorker(4096))
	if got := tr.Affinity(big).Single(); got != 4096 {
		t.Fatalf("high-worker affinity single = %d", got)
	}
}

func TestWalkOrder(t *testing.T) {
	var a Arena
	x, y, z := a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2}), a.Leaf(Work{Flops: 3})
	par := a.Par(y, z)
	root := a.Node(a.Seq(x, par))
	var order []Ref
	root.Tree().walk(root.Ref(), func(r Ref) { order = append(order, r) })
	if len(order) != 5 {
		t.Fatalf("visited %d nodes", len(order))
	}
	if order[0] != root.Ref() || order[1] != x || order[2] != par || order[3] != y || order[4] != z {
		t.Fatal("walk order not depth-first")
	}
}

// leafFlops returns the flops of the tree's leaves in walk order.
func leafFlops(n *Node) []float64 {
	var out []float64
	n.t.walk(n.r, func(r Ref) {
		if n.t.IsLeaf(r) {
			out = append(out, n.t.Demand(r).Flops)
		}
	})
	return out
}

func TestLeaves(t *testing.T) {
	var a Arena
	x, y, z := a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2}), a.Leaf(Work{Flops: 3})
	ls := leafFlops(a.Node(a.Par(a.Seq(x, y), z)))
	if len(ls) != 3 || ls[0] != 1 || ls[1] != 2 || ls[2] != 3 {
		t.Fatal("leaves wrong")
	}
}

func TestCollectTotals(t *testing.T) {
	var a Arena
	root := a.Node(a.Seq(
		a.Leaf(Work{Kind: KindGEMM, Flops: 100, DRAMBytes: 10, L3Bytes: 5}),
		a.Par(
			a.Leaf(Work{Kind: KindAdd, Flops: 20, DRAMBytes: 40}),
			a.Leaf(Work{Kind: KindAdd, Flops: 30, L3Bytes: 15}),
		),
	))
	s := Collect(root)
	if s.Leaves != 3 {
		t.Fatalf("leaves %d", s.Leaves)
	}
	if s.Flops != 150 || s.DRAMBytes != 50 || s.L3Bytes != 20 {
		t.Fatalf("totals %v %v %v", s.Flops, s.DRAMBytes, s.L3Bytes)
	}
	if s.FlopsByKind[KindGEMM] != 100 || s.FlopsByKind[KindAdd] != 50 {
		t.Fatalf("by kind %v", s.FlopsByKind)
	}
	if s.Depth != 3 {
		t.Fatalf("depth %d", s.Depth)
	}
}

// buffer is an empty Seq holding bytes of temporary buffer.
func buffer(a *Arena, bytes float64) Ref { return a.WithAlloc(a.Seq(), bytes) }

func TestCollectAllocPeakSeqTakesMax(t *testing.T) {
	var a Arena
	root := a.Node(a.Seq(buffer(&a, 100), buffer(&a, 300), buffer(&a, 200)))
	if s := Collect(root); s.AllocPeak != 300 {
		t.Fatalf("seq alloc peak %v", s.AllocPeak)
	}
}

func TestCollectAllocPeakParSums(t *testing.T) {
	var a Arena
	root := a.Node(a.WithAlloc(a.Par(buffer(&a, 100), buffer(&a, 300)), 50))
	if s := Collect(root); s.AllocPeak != 450 {
		t.Fatalf("par alloc peak %v", s.AllocPeak)
	}
}

func TestCollectAllocPeakNested(t *testing.T) {
	// Par(Seq(100 then 400), 200) + root 10 => 10 + 400 + 200 = 610.
	var a Arena
	root := a.Node(a.WithAlloc(a.Par(
		a.Seq(buffer(&a, 100), buffer(&a, 400)),
		buffer(&a, 200),
	), 10))
	if s := Collect(root); s.AllocPeak != 610 {
		t.Fatalf("nested alloc peak %v", s.AllocPeak)
	}
}

func TestRunSerialExecutesEveryLeafOnce(t *testing.T) {
	counts := make([]int, 4)
	var a Arena
	mk := func(i int) Ref {
		return a.Leaf(Work{Run: func() { counts[i]++ }})
	}
	root := a.Node(a.Seq(mk(0), a.Par(mk(1), a.Seq(mk(2), mk(3)))))
	RunSerial(root)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("leaf %d ran %d times", i, c)
		}
	}
}

func TestRunSerialOrderRespectsSeq(t *testing.T) {
	var order []int
	var a Arena
	mk := func(i int) Ref {
		return a.Leaf(Work{Run: func() { order = append(order, i) }})
	}
	RunSerial(a.Node(a.Seq(mk(1), mk(2), mk(3))))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestRunSerialNilRunSkipped(t *testing.T) {
	// Must not panic on leaves without closures.
	var a Arena
	RunSerial(a.Node(a.Seq(a.Leaf(Work{Flops: 1}), a.Par(a.Leaf(Work{Flops: 2})))))
}

// randomTree builds an arbitrary tree in a and returns its root with
// its expected leaf count and flop total.
func randomTree(a *Arena, rng *rand.Rand, depth int) (Ref, int, float64) {
	if depth == 0 || rng.Intn(3) == 0 {
		f := float64(rng.Intn(100))
		return a.Leaf(Work{Kind: KindGEMM, Flops: f}), 1, f
	}
	n := 1 + rng.Intn(4)
	children := make([]Ref, n)
	leaves, flops := 0, 0.0
	for i := range children {
		c, l, f := randomTree(a, rng, depth-1)
		children[i] = c
		leaves += l
		flops += f
	}
	if rng.Intn(2) == 0 {
		return a.Seq(children...), leaves, flops
	}
	return a.Par(children...), leaves, flops
}

func TestPropertyCollectMatchesConstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Arena
		root, leaves, flops := randomTree(&a, rng, 4)
		s := Collect(a.Node(root))
		return s.Leaves == leaves && s.Flops == flops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLeavesMatchesCollect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var a Arena
		root, _, _ := randomTree(&a, rng, 5)
		return len(leafFlops(a.Node(root))) == Collect(a.Node(root)).Leaves
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Regions must detect overlapping New calls: tree construction is
// single-threaded by contract (execution is not, since internal/sched
// runs leaves on persistent workers), and the guard turns a violated
// contract into a panic instead of duplicate region IDs.
func TestRegionsGuardPanicsOnOverlappingNew(t *testing.T) {
	var r Regions
	atomic.StoreInt32(&r.busy, 1) // another goroutine is mid-New
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on overlapping Regions.New")
		}
	}()
	r.New()
}

// Serialized cross-goroutine use (a handoff, not an overlap) stays
// legal: the guard only rejects concurrency.
func TestRegionsSequentialHandoffAllowed(t *testing.T) {
	var r Regions
	done := make(chan RegionID)
	go func() { done <- r.New() }()
	first := <-done
	if second := r.New(); second != first+1 {
		t.Fatalf("ids %d then %d", first, second)
	}
}
