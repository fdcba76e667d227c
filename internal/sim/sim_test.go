package sim

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"capscale/internal/hw"
	"capscale/internal/task"
)

func machine() *hw.Machine { return hw.HaswellE31225() }

func computeLeaf(a *task.Arena, flops float64) task.Ref {
	return a.Leaf(task.Work{Kind: task.KindGEMM, Flops: flops})
}

func memLeaf(a *task.Arena, bytes float64) task.Ref {
	return a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: bytes})
}

func TestRunPanicsOnBadWorkers(t *testing.T) {
	m := machine()
	var a task.Arena
	root := a.Node(computeLeaf(&a, 1))
	for _, workers := range []int{0, -1, m.Cores + 1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("workers=%d did not panic", workers)
				}
			}()
			Run(m, root, Config{Workers: workers})
		}()
	}
}

func TestSingleLeaf(t *testing.T) {
	m := machine()
	var a task.Arena
	res := Run(m, a.Node(computeLeaf(&a, 2.56e9)), Config{Workers: 1})
	want := 2.56e9/(m.PeakFlopsPerCore()*0.92) + m.TaskOverhead
	if math.Abs(res.Makespan-want)/want > 1e-9 {
		t.Fatalf("makespan %v want %v", res.Makespan, want)
	}
	if res.Leaves != 1 {
		t.Fatalf("leaves %d", res.Leaves)
	}
	if res.EnergyPKG <= 0 || res.EnergyPP0 <= 0 || res.EnergyDRAM <= 0 {
		t.Fatalf("energies %v %v %v", res.EnergyPKG, res.EnergyPP0, res.EnergyDRAM)
	}
}

func TestEmptyTree(t *testing.T) {
	var a task.Arena
	res := Run(machine(), a.Node(a.Seq()), Config{Workers: 2})
	if res.Makespan != 0 || res.Leaves != 0 {
		t.Fatalf("empty tree: makespan %v leaves %d", res.Makespan, res.Leaves)
	}
}

func TestEveryLeafRunsExactlyOnce(t *testing.T) {
	counts := make([]int, 6)
	var a task.Arena
	mk := func(i int) task.Ref {
		return a.Leaf(task.Work{Kind: task.KindGEMM, Flops: 1e6, Run: func() { counts[i]++ }})
	}
	root := a.Node(a.Seq(
		mk(0),
		a.Par(mk(1), a.Seq(mk(2), mk(3)), mk(4)),
		mk(5),
	))
	Run(machine(), root, Config{Workers: 3, VerifyNumerics: true})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("leaf %d ran %d times", i, c)
		}
	}
}

func TestSeqOrderRespected(t *testing.T) {
	var order []int
	var a task.Arena
	mk := func(i int) task.Ref {
		return a.Leaf(task.Work{Kind: task.KindGEMM, Flops: 1e6, Run: func() { order = append(order, i) }})
	}
	Run(machine(), a.Node(a.Seq(mk(0), mk(1), mk(2), mk(3))), Config{Workers: 4, VerifyNumerics: true})
	for i, v := range order {
		if v != i {
			t.Fatalf("order %v", order)
		}
	}
}

func TestParallelSpeedup(t *testing.T) {
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 8)
	for i := range leaves {
		leaves[i] = computeLeaf(&a, 1e9)
	}
	root := a.Node(a.Par(leaves...))
	one := Run(m, root, Config{Workers: 1})
	four := Run(m, root, Config{Workers: 4})
	speedup := one.Makespan / four.Makespan
	if speedup < 3.5 || speedup > 4.01 {
		t.Fatalf("compute-bound speedup %v, want ~4", speedup)
	}
}

func TestMemoryBoundSpeedupLimitedByBandwidth(t *testing.T) {
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 8)
	for i := range leaves {
		leaves[i] = memLeaf(&a, 1e8)
	}
	root := a.Node(a.Par(leaves...))
	one := Run(m, root, Config{Workers: 1})
	four := Run(m, root, Config{Workers: 4})
	speedup := one.Makespan / four.Makespan
	// Aggregate DRAM is 11 GB/s vs a single stream's 7.5 GB/s: the most
	// parallelism can buy is 11/7.5 ≈ 1.47.
	if speedup > 1.6 {
		t.Fatalf("memory-bound speedup %v exceeds bandwidth ratio", speedup)
	}
	if speedup < 1.0 {
		t.Fatalf("memory-bound parallel run slower than serial: %v", speedup)
	}
}

func TestMakespanBounds(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(7))
	root := randomSimTree(rng, 4)
	serial := m.SerialTime(root)
	span := m.CriticalPath(root)
	res := Run(m, root, Config{Workers: 4, DisableContention: true})
	if res.Makespan > serial*(1+1e-9) {
		t.Fatalf("makespan %v exceeds serial %v", res.Makespan, serial)
	}
	if res.Makespan < span*(1-1e-9) {
		t.Fatalf("makespan %v beats span %v", res.Makespan, span)
	}
	// Greedy (Brent) bound without contention: T_P <= T_1/P + T_inf.
	if bound := serial/4 + span; res.Makespan > bound*(1+1e-9) {
		t.Fatalf("makespan %v exceeds greedy bound %v", res.Makespan, bound)
	}
}

func TestOneWorkerMatchesSerialTime(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(3))
	root := randomSimTree(rng, 4)
	res := Run(m, root, Config{Workers: 1})
	serial := m.SerialTime(root)
	if math.Abs(res.Makespan-serial)/serial > 1e-9 {
		t.Fatalf("1-worker makespan %v vs serial %v", res.Makespan, serial)
	}
}

func TestDeterminism(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(11))
	root := randomSimTree(rng, 5)
	a := Run(m, root, Config{Workers: 3})
	b := Run(m, root, Config{Workers: 3})
	if a.Makespan != b.Makespan || a.EnergyPKG != b.EnergyPKG ||
		a.RemoteBytes != b.RemoteBytes || a.StolenLeaves != b.StolenLeaves {
		t.Fatal("two identical runs differ")
	}
}

func TestEnergyConsistentWithTimeline(t *testing.T) {
	m := machine()
	rng := rand.New(rand.NewSource(5))
	root := randomSimTree(rng, 4)
	res := Run(m, root, Config{Workers: 4, RecordTimeline: true})
	if len(res.Timeline) == 0 {
		t.Fatal("no timeline recorded")
	}
	var pkg, pp0, dram float64
	prevEnd := 0.0
	for _, seg := range res.Timeline {
		if seg.End <= seg.Start {
			t.Fatalf("degenerate segment %+v", seg)
		}
		if seg.Start < prevEnd-1e-12 {
			t.Fatalf("overlapping segments at %v", seg.Start)
		}
		dt := seg.End - seg.Start
		pkg += seg.Power.PKG * dt
		pp0 += seg.Power.PP0 * dt
		dram += seg.Power.DRAM * dt
		prevEnd = seg.End
	}
	if math.Abs(pkg-res.EnergyPKG)/res.EnergyPKG > 1e-9 {
		t.Fatalf("PKG integral %v vs %v", pkg, res.EnergyPKG)
	}
	if math.Abs(pp0-res.EnergyPP0)/math.Max(res.EnergyPP0, 1e-12) > 1e-9 {
		t.Fatalf("PP0 integral %v vs %v", pp0, res.EnergyPP0)
	}
	if math.Abs(dram-res.EnergyDRAM)/res.EnergyDRAM > 1e-9 {
		t.Fatalf("DRAM integral %v vs %v", dram, res.EnergyDRAM)
	}
}

func TestTimelineOffByDefault(t *testing.T) {
	var a task.Arena
	res := Run(machine(), a.Node(computeLeaf(&a, 1e8)), Config{Workers: 1})
	if res.Timeline != nil {
		t.Fatal("timeline recorded without RecordTimeline")
	}
}

func TestAvgPowerWithinPhysicalRange(t *testing.T) {
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 16)
	for i := range leaves {
		leaves[i] = computeLeaf(&a, 1e9)
	}
	res := Run(m, a.Node(a.Par(leaves...)), Config{Workers: 4})
	idle := m.IdlePower()
	if res.AvgPowerPKG() <= idle.PKG {
		t.Fatalf("avg PKG %v not above idle %v", res.AvgPowerPKG(), idle.PKG)
	}
	full := m.SegmentPower([]hw.Activity{{Utilization: 1}, {Utilization: 1}, {Utilization: 1}, {Utilization: 1}})
	if res.AvgPowerPKG() > full.PKG+1 {
		t.Fatalf("avg PKG %v above physical max %v", res.AvgPowerPKG(), full.PKG)
	}
	if res.AvgPowerPP0() >= res.AvgPowerPKG() {
		t.Fatal("PP0 should be below PKG")
	}
	if res.AvgPowerTotal() <= res.AvgPowerPKG() {
		t.Fatal("total should include DRAM plane")
	}
}

func TestRemoteTrafficChargedAcrossWorkers(t *testing.T) {
	var regions task.Regions
	r := regions.New()
	var a task.Arena
	producer := a.WithAffinityMask(a.Leaf(task.Work{
		Kind: task.KindAdd, DRAMBytes: 1e6,
		Writes: []task.RegionID{r}, RegionBytes: 1e6,
	}), task.MaskOfBits(0b01))
	consumer := a.WithAffinityMask(a.Leaf(task.Work{
		Kind: task.KindBaseMul, Flops: 1e6,
		Reads: []task.RegionID{r}, RegionBytes: 1e6,
	}), task.MaskOfBits(0b10))
	root := a.Node(a.Seq(producer, consumer))

	res := Run(machine(), root, Config{Workers: 2})
	if res.RemoteBytes != 1e6 {
		t.Fatalf("remote bytes %v want 1e6", res.RemoteBytes)
	}
	if res.StolenLeaves != 1 {
		t.Fatalf("stolen leaves %d want 1", res.StolenLeaves)
	}

	// Same tree on one worker: no communication possible.
	resOne := Run(machine(), root, Config{Workers: 1})
	if resOne.RemoteBytes != 0 || resOne.StolenLeaves != 0 {
		t.Fatalf("single-worker run charged communication: %v bytes", resOne.RemoteBytes)
	}
}

func TestAffinityPreferenceAvoidsRemote(t *testing.T) {
	// Producer then consumer, unpinned: the scheduler should prefer the
	// producing worker for the consumer even with others idle.
	var regions task.Regions
	r := regions.New()
	var a task.Arena
	producer := a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: 1e6,
		Writes: []task.RegionID{r}, RegionBytes: 1e6})
	consumer := a.Leaf(task.Work{Kind: task.KindBaseMul, Flops: 1e6,
		Reads: []task.RegionID{r}, RegionBytes: 1e6})
	res := Run(machine(), a.Node(a.Seq(producer, consumer)), Config{Workers: 4})
	if res.RemoteBytes != 0 {
		t.Fatalf("affinity preference failed: %v remote bytes", res.RemoteBytes)
	}
}

func TestDisableAffinityIgnoresMasksAndCharges(t *testing.T) {
	var regions task.Regions
	r := regions.New()
	var a task.Arena
	producer := a.WithAffinityMask(a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: 1e6,
		Writes: []task.RegionID{r}, RegionBytes: 1e6}), task.MaskOfBits(0b01))
	consumer := a.WithAffinityMask(a.Leaf(task.Work{Kind: task.KindBaseMul, Flops: 1e6,
		Reads: []task.RegionID{r}, RegionBytes: 1e6}), task.MaskOfBits(0b10))
	res := Run(machine(), a.Node(a.Seq(producer, consumer)), Config{Workers: 2, DisableAffinity: true})
	if res.RemoteBytes != 0 || res.StolenLeaves != 0 {
		t.Fatal("ablation still charged communication")
	}
}

func TestImpossibleAffinityFallsBack(t *testing.T) {
	// Pinned to worker 7, but only 2 workers exist: must complete.
	var a task.Arena
	root := a.Node(a.Seq(a.WithAffinityMask(computeLeaf(&a, 1e6), task.MaskOfBits(1<<7))))
	res := Run(machine(), root, Config{Workers: 2})
	if res.Leaves != 1 {
		t.Fatal("leaf with impossible affinity did not run")
	}
}

func TestAffinityRestrictsParallelism(t *testing.T) {
	// Four compute leaves all pinned to worker 0 must serialize even
	// with four workers available.
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 4)
	for i := range leaves {
		leaves[i] = a.WithAffinityMask(computeLeaf(&a, 1e9), task.MaskOfBits(0b1))
	}
	root := a.Node(a.Par(leaves...))
	res := Run(m, root, Config{Workers: 4})
	serial := m.SerialTime(root)
	if math.Abs(res.Makespan-serial)/serial > 1e-9 {
		t.Fatalf("pinned leaves did not serialize: %v vs %v", res.Makespan, serial)
	}
	if busy := res.WorkerBusy[1] + res.WorkerBusy[2] + res.WorkerBusy[3]; busy != 0 {
		t.Fatalf("non-pinned workers were busy: %v", busy)
	}
}

func TestDisableContentionSpeedsMemoryBoundRuns(t *testing.T) {
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 8)
	for i := range leaves {
		leaves[i] = memLeaf(&a, 1e8)
	}
	root := a.Node(a.Par(leaves...))
	contended := Run(m, root, Config{Workers: 4})
	free := Run(m, root, Config{Workers: 4, DisableContention: true})
	if free.Makespan >= contended.Makespan {
		t.Fatalf("contention ablation did not speed up: %v vs %v", free.Makespan, contended.Makespan)
	}
}

func TestAllocHighWater(t *testing.T) {
	// Par of two subtrees each holding 1 MB: both live at once under a
	// 2-worker schedule.
	var a task.Arena
	sub := func() task.Ref {
		return a.WithAlloc(a.Seq(computeLeaf(&a, 1e9)), 1e6)
	}
	root := a.Node(a.Par(sub(), sub()))
	res := Run(machine(), root, Config{Workers: 2})
	if res.AllocHighWater != 2e6 {
		t.Fatalf("high water %v want 2e6", res.AllocHighWater)
	}
	stats := task.Collect(root)
	if res.AllocHighWater > stats.AllocPeak {
		t.Fatalf("scheduled high water %v exceeds structural bound %v", res.AllocHighWater, stats.AllocPeak)
	}
}

func TestBusyByKindBreakdown(t *testing.T) {
	m := machine()
	var a task.Arena
	root := a.Node(a.Seq(
		a.Leaf(task.Work{Kind: task.KindGEMM, Flops: 1e9}),
		a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: 1e8}),
		a.Leaf(task.Work{Kind: task.KindCopy, DRAMBytes: 5e7}),
	))
	res := Run(m, root, Config{Workers: 2})
	if len(res.BusyByKind) != 3 {
		t.Fatalf("kinds %v", res.BusyByKind)
	}
	sumKinds := 0.0
	for _, v := range res.BusyByKind {
		sumKinds += v
	}
	sumWorkers := 0.0
	for _, v := range res.WorkerBusy {
		sumWorkers += v
	}
	if math.Abs(sumKinds-sumWorkers) > 1e-12 {
		t.Fatalf("kind sum %v vs worker sum %v", sumKinds, sumWorkers)
	}
	if res.BusyByKind[task.KindGEMM] <= res.BusyByKind[task.KindCopy] {
		t.Fatal("1 GFlop of GEMM should outweigh a 50MB copy")
	}
}

func TestWorkerBusyAccounting(t *testing.T) {
	m := machine()
	var a task.Arena
	leaves := make([]task.Ref, 4)
	for i := range leaves {
		leaves[i] = computeLeaf(&a, 1e9)
	}
	res := Run(m, a.Node(a.Par(leaves...)), Config{Workers: 4})
	if len(res.WorkerBusy) != 4 {
		t.Fatalf("busy slice len %d", len(res.WorkerBusy))
	}
	for i, b := range res.WorkerBusy {
		if b <= 0 || b > res.Makespan*(1+1e-9) {
			t.Fatalf("worker %d busy %v outside (0, %v]", i, b, res.Makespan)
		}
	}
	if u := res.Utilization(); u < 0.9 || u > 1.0+1e-9 {
		t.Fatalf("utilization %v for perfectly divisible work", u)
	}
}

func TestSixtyFourWorkerMachine(t *testing.T) {
	// Exercises the full-width affinity mask path (1<<64 overflow
	// guard) and scheduling breadth well past the paper's 4 cores.
	m := machine()
	m.Cores = 64
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	var a task.Arena
	leaves := make([]task.Ref, 256)
	for i := range leaves {
		leaves[i] = computeLeaf(&a, 1e8)
	}
	root := a.Node(a.Par(leaves...))
	res := Run(m, root, Config{Workers: 64})
	if res.Leaves != 256 {
		t.Fatalf("leaves %d", res.Leaves)
	}
	one := Run(m, root, Config{Workers: 1})
	if sp := one.Makespan / res.Makespan; sp < 50 {
		t.Fatalf("64-worker speedup %v", sp)
	}
}

func TestPropertyAllLeavesExecuted(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomSimTree(rng, 4)
		want := task.Collect(root).Leaves
		workers := 1 + rng.Intn(4)
		res := Run(m, root, Config{Workers: workers})
		return res.Leaves == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyMoreWorkersNeverSlower(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomSimTree(rng, 4)
		// Contention off isolates scheduling: with it on, more workers
		// can legitimately lengthen individual leaves.
		cfgA := Config{Workers: 1, DisableContention: true}
		cfgB := Config{Workers: 4, DisableContention: true}
		a := Run(m, root, cfgA)
		b := Run(m, root, cfgB)
		return b.Makespan <= a.Makespan*(1+1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEnergyPositiveAndBounded(t *testing.T) {
	m := machine()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomSimTree(rng, 3)
		res := Run(m, root, Config{Workers: 2})
		if res.Makespan == 0 {
			return res.EnergyPKG == 0
		}
		maxP := m.SegmentPower([]hw.Activity{
			{Utilization: 1, DRAMRate: m.DRAMBandwidth, L3Rate: m.L3Bandwidth},
			{Utilization: 1, DRAMRate: m.DRAMBandwidth, L3Rate: m.L3Bandwidth},
		})
		return res.EnergyPKG > 0 && res.AvgPowerPKG() <= maxP.PKG+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func randomSimTree(rng *rand.Rand, depth int) *task.Node {
	var a task.Arena
	var rec func(depth int) task.Ref
	rec = func(depth int) task.Ref {
		if depth == 0 || rng.Intn(3) == 0 {
			kind := []task.Kind{task.KindGEMM, task.KindBaseMul, task.KindAdd, task.KindCopy}[rng.Intn(4)]
			return a.Leaf(task.Work{
				Kind:      kind,
				Flops:     rng.Float64() * 1e8,
				DRAMBytes: rng.Float64() * 1e7,
				L3Bytes:   rng.Float64() * 1e7,
			})
		}
		n := 1 + rng.Intn(4)
		children := make([]task.Ref, n)
		for i := range children {
			children[i] = rec(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return a.Seq(children...)
		}
		return a.Par(children...)
	}
	return a.Node(rec(depth))
}

// complete recycles each node's state, so node state is bounded by the
// live frontier: a tree 50× longer must not cost one more state block
// per 512 nodes, and allocations stay flat. The Seq chain's ready
// queue drains after every leaf; the four chains on two workers keep
// one that never drains, so its consumed slots must be reclaimed as
// the run goes. (A queue keeps the capacity of its peak occupancy;
// with one queue, that peak is the frontier.)
func TestRunStateBoundedByFrontier(t *testing.T) {
	m := machine()
	chain := func(a *task.Arena, n int) task.Ref {
		leaves := make([]task.Ref, n)
		for i := range leaves {
			leaves[i] = computeLeaf(a, 1e3)
		}
		return a.Seq(leaves...)
	}
	chains := func(a *task.Arena, n int) task.Ref {
		return a.Par(chain(a, n), chain(a, n), chain(a, n), chain(a, n))
	}
	cfg := Config{Workers: 2}
	for _, tc := range []struct {
		name  string
		build func(a *task.Arena, n int) task.Ref
	}{{"seq chain", chain}, {"4 chains on 2 workers", chains}} {
		var a, b task.Arena
		short, long := a.Node(tc.build(&a, 1000)), b.Node(tc.build(&b, 50000))
		base := testing.AllocsPerRun(3, func() { Run(m, short, cfg) })
		got := testing.AllocsPerRun(3, func() { Run(m, long, cfg) })
		if got > base+4 {
			t.Fatalf("%s: 50000 leaves per chain allocate %.0f times per run, 1000 leaves %.0f: per-run state grows with the tree", tc.name, got, base)
		}
	}
}

// A paper-size run starts about a million node states, so their size
// is part of the sweep's cost: the state holds an index into the run's
// mask table, not a copy of the mask.
func TestNodeStateLayoutBudget(t *testing.T) {
	if s := unsafe.Sizeof(nodeState{}); s > 32 {
		t.Errorf("node state is %d bytes, budget 32", s)
	}
}

// The executor's per-node and per-leaf records hold no pointers: node
// states, FIFO entries, the running heap's entries and leaf records,
// dispatch candidates and queue registrations name each other by index,
// so the collector never scans them and writing them needs no write
// barrier.
func TestExecutorRecordsHoldNoPointers(t *testing.T) {
	records := map[string]reflect.Type{
		"node state":         reflect.TypeOf(nodeState{}),
		"FIFO entry":         reflect.TypeOf(fifo{}.items).Elem(),
		"candidate":          reflect.TypeOf(candidate{}),
		"queue registration": reflect.TypeOf(queueReg{}),
	}
	// The running heap's entries: the elements of every slice it holds.
	switch heap := reflect.TypeOf(executor{}.running); heap.Kind() {
	case reflect.Slice:
		records["running-heap entry"] = heap.Elem()
	case reflect.Struct:
		for i := 0; i < heap.NumField(); i++ {
			if f := heap.Field(i); f.Type.Kind() == reflect.Slice {
				records["running-heap "+f.Name] = f.Type.Elem()
			}
		}
	}
	for name, typ := range records {
		if hasPointers(typ) {
			t.Errorf("%s (%v) holds pointers", name, typ)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
