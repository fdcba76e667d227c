package task

import (
	"math/rand"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func leaf(flops float64) *Node {
	return Leaf(Work{Kind: KindGEMM, Flops: flops})
}

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
	l := leaf(1)
	s := Seq(l)
	p := Par(l)
	if !l.IsLeaf() || l.IsSeq() || l.IsPar() {
		t.Fatal("leaf predicates")
	}
	if !s.IsSeq() || s.IsLeaf() {
		t.Fatal("seq predicates")
	}
	if !p.IsPar() || p.IsSeq() {
		t.Fatal("par predicates")
	}
}

func TestWorkOnNonLeafPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Work() on Seq did not panic")
		}
	}()
	Seq().Work()
}

func TestAffinityAndAlloc(t *testing.T) {
	n := Seq().WithAffinity(0b1010).WithAlloc(512)
	if n.Affinity().LowBits() != 0b1010 || !n.Affinity().Equal(MaskOf(1, 3)) {
		t.Fatalf("affinity %v", n.Affinity())
	}
	if n.AllocBytes() != 512 {
		t.Fatalf("alloc %v", n.AllocBytes())
	}
	big := Seq().WithAffinityMask(SingleWorker(4096))
	if got := big.Affinity().Single(); got != 4096 {
		t.Fatalf("high-worker affinity single = %d", got)
	}
}

func TestWalkOrder(t *testing.T) {
	a, b, c := leaf(1), leaf(2), leaf(3)
	root := Seq(a, Par(b, c))
	var order []*Node
	root.Walk(func(n *Node) { order = append(order, n) })
	if len(order) != 5 {
		t.Fatalf("visited %d nodes", len(order))
	}
	if order[1].Work().Flops != 1 || !order[2].IsPar() || order[3].Work().Flops != 2 || order[4].Work().Flops != 3 {
		t.Fatal("walk order not depth-first")
	}
}

func TestLeaves(t *testing.T) {
	a, b, c := leaf(1), leaf(2), leaf(3)
	root := Par(Seq(a, b), c)
	ls := root.Leaves()
	if len(ls) != 3 || ls[0].Work().Flops != 1 || ls[1].Work().Flops != 2 || ls[2].Work().Flops != 3 {
		t.Fatal("leaves wrong")
	}
}

func TestCollectTotals(t *testing.T) {
	root := Seq(
		Leaf(Work{Kind: KindGEMM, Flops: 100, DRAMBytes: 10, L3Bytes: 5}),
		Par(
			Leaf(Work{Kind: KindAdd, Flops: 20, DRAMBytes: 40}),
			Leaf(Work{Kind: KindAdd, Flops: 30, L3Bytes: 15}),
		),
	)
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

func TestCollectAllocPeakSeqTakesMax(t *testing.T) {
	root := Seq(
		Seq().WithAlloc(100),
		Seq().WithAlloc(300),
		Seq().WithAlloc(200),
	)
	if s := Collect(root); s.AllocPeak != 300 {
		t.Fatalf("seq alloc peak %v", s.AllocPeak)
	}
}

func TestCollectAllocPeakParSums(t *testing.T) {
	root := Par(
		Seq().WithAlloc(100),
		Seq().WithAlloc(300),
	).WithAlloc(50)
	if s := Collect(root); s.AllocPeak != 450 {
		t.Fatalf("par alloc peak %v", s.AllocPeak)
	}
}

func TestCollectAllocPeakNested(t *testing.T) {
	// Par(Seq(100 then 400), 200) + root 10 => 10 + 400 + 200 = 610.
	root := Par(
		Seq(Seq().WithAlloc(100), Seq().WithAlloc(400)),
		Seq().WithAlloc(200),
	).WithAlloc(10)
	if s := Collect(root); s.AllocPeak != 610 {
		t.Fatalf("nested alloc peak %v", s.AllocPeak)
	}
}

func TestRunSerialExecutesEveryLeafOnce(t *testing.T) {
	counts := make([]int, 4)
	mk := func(i int) *Node {
		return Leaf(Work{Run: func() { counts[i]++ }})
	}
	root := Seq(mk(0), Par(mk(1), Seq(mk(2), mk(3))))
	RunSerial(root)
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("leaf %d ran %d times", i, c)
		}
	}
}

func TestRunSerialOrderRespectsSeq(t *testing.T) {
	var order []int
	mk := func(i int) *Node {
		return Leaf(Work{Run: func() { order = append(order, i) }})
	}
	RunSerial(Seq(mk(1), mk(2), mk(3)))
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order %v", order)
	}
}

func TestRunSerialNilRunSkipped(t *testing.T) {
	// Must not panic on leaves without closures.
	RunSerial(Seq(leaf(1), Par(leaf(2))))
}

// randomTree builds an arbitrary tree and returns it with its expected
// leaf count and flop total.
func randomTree(rng *rand.Rand, depth int) (*Node, int, float64) {
	if depth == 0 || rng.Intn(3) == 0 {
		f := float64(rng.Intn(100))
		return leaf(f), 1, f
	}
	n := 1 + rng.Intn(4)
	children := make([]*Node, n)
	leaves, flops := 0, 0.0
	for i := range children {
		c, l, f := randomTree(rng, depth-1)
		children[i] = c
		leaves += l
		flops += f
	}
	if rng.Intn(2) == 0 {
		return Seq(children...), leaves, flops
	}
	return Par(children...), leaves, flops
}

func TestPropertyCollectMatchesConstruction(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root, leaves, flops := randomTree(rng, 4)
		s := Collect(root)
		return s.Leaves == leaves && s.Flops == flops
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyLeavesMatchesCollect(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root, _, _ := randomTree(rng, 5)
		return len(root.Leaves()) == Collect(root).Leaves
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
