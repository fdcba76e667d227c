// Bit-identicality pin for the event-driven scheduler rewrite.
//
// seedRun below is the original O(workers)-per-event list scheduler,
// preserved verbatim (modulo renames, reading the legacy uint64
// affinity via Mask.LowBits, and reading the tree by Ref). The event-driven engine in sim.go must
// reproduce its Result — every float compared with ==, not a
// tolerance — across the full 48-run paper matrix and both ablation
// switches. Equality holds because the rewrite preserves the exact
// launch sequence (same leaves to same workers at same times, in the
// same order) and the exact float-operation order of the power
// integration (running-heap array order, identical heap operations).
package sim_test

import (
	"container/heap"
	"fmt"
	"math"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
	"capscale/internal/workload"
)

// ---------------------------------------------------------------------------
// The seed scheduler, verbatim.
// ---------------------------------------------------------------------------

type seedNodeState struct {
	r         task.Ref
	parent    *seedNodeState
	pending   int
	nextChild int
	mask      uint64
}

type seedRunningLeaf struct {
	state    *seedNodeState
	worker   int
	finish   float64
	seq      int
	activity hw.Activity
}

type seedLeafHeap []*seedRunningLeaf

func (h seedLeafHeap) Len() int { return len(h) }
func (h seedLeafHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h seedLeafHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *seedLeafHeap) Push(x any)   { *h = append(*h, x.(*seedRunningLeaf)) }
func (h *seedLeafHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

type seedExecutor struct {
	m   *hw.Machine
	t   *task.Tree
	cfg sim.Config

	ready     []*seedNodeState
	readyHead int
	readyLive int

	readyPinned [][]*seedNodeState
	pinnedHead  []int

	running seedLeafHeap
	now     float64
	seq     int

	workerBusyUntil []float64
	workerBusyTotal []float64
	workerIdle      []bool
	idleCount       int

	lastWriter []int32

	actsBuf    []hw.Activity
	leafFree   []*seedRunningLeaf
	stateArena []seedNodeState

	liveAlloc float64
	res       sim.Result
}

func (e *seedExecutor) newState(r task.Ref, parent *seedNodeState, mask uint64) *seedNodeState {
	if len(e.stateArena) == 0 {
		e.stateArena = make([]seedNodeState, 512)
	}
	s := &e.stateArena[0]
	e.stateArena = e.stateArena[1:]
	s.r, s.parent, s.mask = r, parent, mask
	return s
}

// work returns leaf r's Work, read from the tree's records.
func (e *seedExecutor) work(r task.Ref) *task.Work {
	d, regionBytes, reads, writes := e.t.LeafInputs(r)
	return &task.Work{Label: e.t.Label(r), Kind: d.Kind, Flops: d.Flops, L3Bytes: d.L3Bytes,
		DRAMBytes: d.DRAMBytes, Reads: reads, Writes: writes, RegionBytes: regionBytes, Run: e.t.Run(r)}
}

func (e *seedExecutor) writerOf(r task.RegionID) int {
	if int(r) < len(e.lastWriter) {
		return int(e.lastWriter[r])
	}
	return -1
}

func (e *seedExecutor) setWriter(r task.RegionID, worker int) {
	if int(r) >= len(e.lastWriter) {
		size := 2 * len(e.lastWriter)
		if size <= int(r) {
			size = int(r) + 1
		}
		grown := make([]int32, size)
		copy(grown, e.lastWriter)
		for i := len(e.lastWriter); i < size; i++ {
			grown[i] = -1
		}
		e.lastWriter = grown
	}
	e.lastWriter[r] = int32(worker)
}

func seedRun(m *hw.Machine, root *task.Node, cfg sim.Config) *sim.Result {
	e := &seedExecutor{
		m:               m,
		t:               root.Tree(),
		cfg:             cfg,
		workerBusyUntil: make([]float64, cfg.Workers),
		workerBusyTotal: make([]float64, cfg.Workers),
		workerIdle:      make([]bool, cfg.Workers),
		readyPinned:     make([][]*seedNodeState, cfg.Workers),
		pinnedHead:      make([]int, cfg.Workers),
		lastWriter:      make([]int32, 1024),
		running:         make(seedLeafHeap, 0, cfg.Workers),
		actsBuf:         make([]hw.Activity, 0, cfg.Workers),
	}
	for i := range e.lastWriter {
		e.lastWriter[i] = -1
	}
	e.res.BusyByKind = make(map[task.Kind]float64)
	for i := range e.workerIdle {
		e.workerIdle[i] = true
	}
	e.idleCount = cfg.Workers

	e.startNode(e.newState(root.Ref(), nil, e.allMask()))
	e.dispatch()
	for len(e.running) > 0 {
		e.advance()
		e.dispatch()
	}
	e.res.Makespan = e.now
	e.res.WorkerBusy = e.workerBusyTotal
	return &e.res
}

func (e *seedExecutor) allMask() uint64 {
	if e.cfg.Workers >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(e.cfg.Workers)) - 1
}

func (e *seedExecutor) effectiveMask(r task.Ref, inherited uint64) uint64 {
	if e.cfg.DisableAffinity || e.t.Affinity(r).LowBits() == 0 {
		return inherited
	}
	m := e.t.Affinity(r).LowBits() & inherited
	if m == 0 {
		return inherited
	}
	return m
}

func (e *seedExecutor) startNode(s *seedNodeState) {
	e.liveAlloc += e.t.AllocBytes(s.r)
	if e.liveAlloc > e.res.AllocHighWater {
		e.res.AllocHighWater = e.liveAlloc
	}
	switch {
	case e.t.IsLeaf(s.r):
		if w := seedSingleWorker(s.mask); w >= 0 && w < e.cfg.Workers {
			e.readyPinned[w] = append(e.readyPinned[w], s)
		} else {
			e.ready = append(e.ready, s)
			e.readyLive++
		}
	case e.t.IsSeq(s.r):
		if e.t.NumChildren(s.r) == 0 {
			e.complete(s)
			return
		}
		e.startChild(s, 0)
	default:
		children := e.t.NumChildren(s.r)
		if children == 0 {
			e.complete(s)
			return
		}
		s.pending = children
		for i := 0; i < children; i++ {
			e.startChild(s, i)
		}
	}
}

func (e *seedExecutor) startChild(parent *seedNodeState, idx int) {
	child := e.t.Child(parent.r, idx)
	cs := e.newState(child, parent, e.effectiveMask(child, parent.mask))
	if e.t.IsSeq(parent.r) {
		parent.nextChild = idx + 1
	}
	e.startNode(cs)
}

func (e *seedExecutor) complete(s *seedNodeState) {
	e.liveAlloc -= e.t.AllocBytes(s.r)
	p := s.parent
	if p == nil {
		return
	}
	if e.t.IsSeq(p.r) {
		if p.nextChild < e.t.NumChildren(p.r) {
			e.startChild(p, p.nextChild)
			return
		}
		e.complete(p)
		return
	}
	p.pending--
	if p.pending == 0 {
		e.complete(p)
	}
}

func (e *seedExecutor) preferredWorker(w *task.Work) int {
	for _, r := range w.Reads {
		if wr := e.writerOf(r); wr >= 0 {
			return wr
		}
	}
	return -1
}

func seedSingleWorker(mask uint64) int {
	if mask != 0 && mask&(mask-1) == 0 {
		w := 0
		for mask>>uint(w)&1 == 0 {
			w++
		}
		return w
	}
	return -1
}

func (e *seedExecutor) dispatch() {
	for e.idleCount > 0 {
		dispatched := false
		for w := 0; w < e.cfg.Workers && e.idleCount > 0; w++ {
			if !e.workerIdle[w] {
				continue
			}
			q := e.readyPinned[w]
			if e.pinnedHead[w] < len(q) {
				s := q[e.pinnedHead[w]]
				e.pinnedHead[w]++
				if e.pinnedHead[w] > 64 && e.pinnedHead[w] > len(q)/2 {
					n := copy(q, q[e.pinnedHead[w]:])
					e.readyPinned[w] = q[:n]
					e.pinnedHead[w] = 0
				}
				e.launch(s, w)
				dispatched = true
			}
		}
		for e.idleCount > 0 && e.readyLive > 0 {
			found := false
			for qi := e.readyHead; qi < len(e.ready); qi++ {
				s := e.ready[qi]
				if s == nil {
					continue
				}
				worker := e.pickWorker(s)
				if worker < 0 {
					continue
				}
				e.ready[qi] = nil
				e.readyLive--
				e.launch(s, worker)
				found = true
				dispatched = true
				break
			}
			if !found {
				break
			}
			e.compactReady()
		}
		if !dispatched {
			return
		}
	}
}

func (e *seedExecutor) compactReady() {
	for e.readyHead < len(e.ready) && e.ready[e.readyHead] == nil {
		e.readyHead++
	}
	if e.readyHead > 64 && e.readyHead > len(e.ready)/2 {
		n := copy(e.ready, e.ready[e.readyHead:])
		e.ready = e.ready[:n]
		e.readyHead = 0
	}
}

func (e *seedExecutor) pickWorker(s *seedNodeState) int {
	w := e.work(s.r)
	pref := -1
	if !e.cfg.DisableAffinity {
		pref = e.preferredWorker(w)
	}
	if pref >= 0 && pref < e.cfg.Workers && e.workerIdle[pref] && s.mask&(1<<uint(pref)) != 0 {
		return pref
	}
	for i := 0; i < e.cfg.Workers; i++ {
		if e.workerIdle[i] && s.mask&(1<<uint(i)) != 0 {
			return i
		}
	}
	return -1
}

func (e *seedExecutor) launch(s *seedNodeState, worker int) {
	w := e.work(s.r)

	remoteBytes := 0.0
	stolen := false
	if !e.cfg.DisableAffinity {
		for _, r := range w.Reads {
			if wr := e.writerOf(r); wr >= 0 && wr != worker {
				remoteBytes += w.RegionBytes
			}
		}
		if pref := e.preferredWorker(w); pref >= 0 && pref != worker {
			stolen = true
		}
	}

	var cont hw.Contention
	if e.cfg.DisableContention {
		cont = e.m.Uncontended()
	} else {
		cont = e.m.Shared(len(e.running) + 1)
	}
	cost := e.m.CostLeaf(w, cont, remoteBytes, stolen)

	if e.cfg.VerifyNumerics && w.Run != nil {
		w.Run()
	}

	for _, wr := range w.Writes {
		e.setWriter(wr, worker)
	}

	e.workerIdle[worker] = false
	e.idleCount--
	e.workerBusyUntil[worker] = e.now + cost.Duration
	e.workerBusyTotal[worker] += cost.Duration
	e.res.BusyByKind[w.Kind] += cost.Duration
	e.res.Leaves++
	if e.cfg.RecordSchedule {
		e.res.Schedule = append(e.res.Schedule, sim.LeafSpan{
			Worker: worker,
			Start:  e.now,
			End:    e.now + cost.Duration,
			Kind:   w.Kind,
			Label:  w.Label,
		})
	}
	e.res.RemoteBytes += remoteBytes
	if stolen {
		e.res.StolenLeaves++
	}

	e.seq++
	rl := e.getLeaf()
	rl.state = s
	rl.worker = worker
	rl.finish = e.now + cost.Duration
	rl.seq = e.seq
	rl.activity = hw.Activity{
		Utilization: cost.Utilization,
		DRAMRate:    cost.DRAMRate,
		L3Rate:      cost.L3Rate,
	}
	heap.Push(&e.running, rl)
}

func (e *seedExecutor) getLeaf() *seedRunningLeaf {
	if n := len(e.leafFree); n > 0 {
		rl := e.leafFree[n-1]
		e.leafFree = e.leafFree[:n-1]
		return rl
	}
	return &seedRunningLeaf{}
}

func (e *seedExecutor) advance() {
	next := e.running[0].finish
	if dt := next - e.now; dt > 0 {
		acts := e.actsBuf[:0]
		for _, rl := range e.running {
			acts = append(acts, rl.activity)
		}
		e.actsBuf = acts
		p := e.m.SegmentPower(acts)
		e.res.EnergyPKG += p.PKG * dt
		e.res.EnergyPP0 += p.PP0 * dt
		e.res.EnergyDRAM += p.DRAM * dt
		if e.cfg.RecordTimeline {
			e.res.Timeline = append(e.res.Timeline, sim.Segment{Start: e.now, End: next, Power: p})
		}
		if e.cfg.OnSegment != nil {
			e.cfg.OnSegment(sim.Segment{Start: e.now, End: next, Power: p})
		}
	}
	e.now = next
	for len(e.running) > 0 && seedSameTime(e.running[0].finish, e.now) {
		rl := heap.Pop(&e.running).(*seedRunningLeaf)
		e.workerIdle[rl.worker] = true
		e.idleCount++
		s := rl.state
		rl.state = nil
		e.leafFree = append(e.leafFree, rl)
		e.complete(s)
	}
}

func seedSameTime(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
}

// ---------------------------------------------------------------------------
// The pin.
// ---------------------------------------------------------------------------

// requireIdentical compares two Results field by field with exact
// equality — floats with ==, not a tolerance.
func requireIdentical(t *testing.T, label string, got, want *sim.Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Fatalf("%s: makespan %v != seed %v", label, got.Makespan, want.Makespan)
	}
	if got.EnergyPKG != want.EnergyPKG || got.EnergyPP0 != want.EnergyPP0 ||
		got.EnergyDRAM != want.EnergyDRAM {
		t.Fatalf("%s: energy (%v,%v,%v) != seed (%v,%v,%v)", label,
			got.EnergyPKG, got.EnergyPP0, got.EnergyDRAM,
			want.EnergyPKG, want.EnergyPP0, want.EnergyDRAM)
	}
	if got.Leaves != want.Leaves {
		t.Fatalf("%s: leaves %d != seed %d", label, got.Leaves, want.Leaves)
	}
	if got.RemoteBytes != want.RemoteBytes {
		t.Fatalf("%s: remote bytes %v != seed %v", label, got.RemoteBytes, want.RemoteBytes)
	}
	if got.StolenLeaves != want.StolenLeaves {
		t.Fatalf("%s: stolen %d != seed %d", label, got.StolenLeaves, want.StolenLeaves)
	}
	if got.AllocHighWater != want.AllocHighWater {
		t.Fatalf("%s: alloc high water %v != seed %v", label, got.AllocHighWater, want.AllocHighWater)
	}
	if len(got.WorkerBusy) != len(want.WorkerBusy) {
		t.Fatalf("%s: worker count %d != seed %d", label, len(got.WorkerBusy), len(want.WorkerBusy))
	}
	for i := range want.WorkerBusy {
		if got.WorkerBusy[i] != want.WorkerBusy[i] {
			t.Fatalf("%s: worker %d busy %v != seed %v", label, i,
				got.WorkerBusy[i], want.WorkerBusy[i])
		}
	}
	if len(got.BusyByKind) != len(want.BusyByKind) {
		t.Fatalf("%s: busy-by-kind size %d != seed %d", label,
			len(got.BusyByKind), len(want.BusyByKind))
	}
	for k, v := range want.BusyByKind {
		if got.BusyByKind[k] != v {
			t.Fatalf("%s: busy[%v] %v != seed %v", label, k, got.BusyByKind[k], v)
		}
	}
	if len(got.Schedule) != len(want.Schedule) {
		t.Fatalf("%s: schedule length %d != seed %d", label, len(got.Schedule), len(want.Schedule))
	}
	for i := range want.Schedule {
		if got.Schedule[i] != want.Schedule[i] {
			t.Fatalf("%s: schedule[%d] %+v != seed %+v", label, i,
				got.Schedule[i], want.Schedule[i])
		}
	}
	if len(got.Timeline) != len(want.Timeline) {
		t.Fatalf("%s: timeline length %d != seed %d", label, len(got.Timeline), len(want.Timeline))
	}
	for i := range want.Timeline {
		if got.Timeline[i] != want.Timeline[i] {
			t.Fatalf("%s: timeline[%d] %+v != seed %+v", label, i,
				got.Timeline[i], want.Timeline[i])
		}
	}
}

// TestEventSchedulerBitIdenticalToSeed pins the event-driven scheduler
// to the seed list scheduler over the paper's experiment matrix (all
// 48 cells in full mode; sizes trimmed in -short) under the default
// configuration and under each ablation switch. Every cell compares
// makespan, the three energy planes, leaf/communication/steal counts
// and per-worker busy times with exact equality; at the smaller sizes
// (where the extra allocation cost is negligible) the full per-leaf
// schedule and per-segment timeline are recorded and compared too, and
// both ablation switches run as additional variants.
func TestEventSchedulerBitIdenticalToSeed(t *testing.T) {
	cfg := workload.PaperConfig()
	sizes := cfg.Sizes
	if testing.Short() {
		sizes = []int{256, 512}
	}
	variants := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"default", func(*sim.Config) {}},
		{"no-affinity", func(c *sim.Config) { c.DisableAffinity = true }},
		{"no-contention", func(c *sim.Config) { c.DisableContention = true }},
	}
	for _, alg := range cfg.Algorithms {
		for _, n := range sizes {
			deep := n <= 1024 // record & compare schedule/timeline, run ablations
			for _, threads := range cfg.Threads {
				tree := workload.BuildTree(cfg.Machine, alg, n, threads)
				for _, v := range variants {
					if v.name != "default" && !deep {
						continue
					}
					sc := sim.Config{
						Workers:        threads,
						RecordSchedule: deep,
						RecordTimeline: deep,
					}
					v.mut(&sc)
					got := sim.Run(cfg.Machine, tree, sc)
					want := seedRun(cfg.Machine, tree, sc)
					label := fmt.Sprintf("%v/n%d/%dt/%s", alg, n, threads, v.name)
					requireIdentical(t, label, got, want)
				}
			}
		}
	}
}

// The shared-queue skip path (leaves whose mask has no idle worker are
// passed over without losing FIFO position) is the subtlest part of the
// dispatch equivalence; exercise it directly with competing pinned and
// masked leaves.
func TestEventSchedulerBitIdenticalOnMaskedContention(t *testing.T) {
	m := hw.HaswellE31225()
	var regions task.Regions
	r1, r2 := regions.New(), regions.New()
	var a task.Arena
	mk := func(flops float64, reads, writes []task.RegionID) task.Ref {
		return a.Leaf(task.Work{
			Kind: task.KindGEMM, Flops: flops,
			Reads: reads, Writes: writes, RegionBytes: 1e5,
		})
	}
	pin := func(r task.Ref, bits uint64) task.Ref { return a.WithAffinityMask(r, task.MaskOfBits(bits)) }
	root := a.Node(a.Par(
		// Two leaves restricted to workers {0,1}, one to {2,3}, a
		// producer/consumer pair, and unrestricted filler.
		pin(mk(1e8, nil, []task.RegionID{r1}), 0b0011),
		pin(mk(2e8, nil, nil), 0b0011),
		pin(mk(3e8, nil, []task.RegionID{r2}), 0b1100),
		a.Seq(
			mk(1e8, []task.RegionID{r1}, nil),
			mk(1e8, []task.RegionID{r1, r2}, nil),
		),
		mk(5e7, nil, nil),
		pin(mk(6e7, nil, nil), 0b0001),
		pin(mk(7e7, nil, nil), 0b0001),
	))
	for workers := 1; workers <= 4; workers++ {
		sc := sim.Config{Workers: workers, RecordSchedule: true, RecordTimeline: true}
		requireIdentical(t, "masked contention",
			sim.Run(m, root, sc), seedRun(m, root, sc))
	}
}
