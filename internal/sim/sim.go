// Package sim is the deterministic virtual-time execution engine.
//
// It schedules a fork-join task tree (internal/task) onto P modeled
// cores of a machine (internal/hw) with greedy list scheduling,
// accounting for DRAM bandwidth contention, affinity-based communication
// (remote cache-to-cache traffic when a leaf reads data last written by
// a different worker) and per-task dispatch overhead. While scheduling
// it integrates the machine's power model over the timeline, producing
// per-plane energy totals and, optionally, the full power trace that the
// RAPL emulation replays.
//
// The engine is event-driven and sized for cluster-scale worker counts
// (10⁴–10⁶ simulated workers): leaf completions sit in an indexed
// min-heap, idle workers in a hierarchical bitmap with O(log₆₄ n)
// masked lookups, and per-worker pinned queues pop in O(1), so no per-
// event operation scans all workers. With ≤ 64 workers the scheduler is
// bit-identical to the original list scheduler (pinned by
// TestEventSchedulerBitIdenticalToSeed); above 64 it switches power
// integration to O(1) compensated aggregate sums, since per-segment
// iteration over running leaves would make the event loop O(workers)
// again.
//
// Virtual time makes the paper's 48-run experiment matrix deterministic
// and independent of the host executing the reproduction.
package sim

import (
	"container/heap"
	"fmt"
	"math"

	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/task"
)

// Config controls one simulated execution.
type Config struct {
	// Workers is the simulated thread count (OMP_NUM_THREADS in the
	// paper). It may be smaller than the machine's core count; it must
	// not exceed it.
	Workers int
	// VerifyNumerics runs each leaf's Run closure in dependency order so
	// tests can check that the scheduled tree computes correct results.
	VerifyNumerics bool
	// RecordTimeline retains the per-segment power trace in the result.
	// Energy totals are always computed; the trace costs memory on large
	// trees, so it is opt-in.
	RecordTimeline bool
	// DisableAffinity is an ablation switch: no remote traffic is
	// charged and steals are free. It removes the mechanism that
	// distinguishes CAPS from classic Strassen.
	DisableAffinity bool
	// DisableContention is an ablation switch: every leaf sees the
	// machine's uncontended bandwidth regardless of concurrency.
	DisableContention bool
	// RecordSchedule retains every leaf's placement (worker, interval,
	// kind) for Gantt rendering. Opt-in: large trees produce large
	// schedules.
	RecordSchedule bool
	// OnSegment, when non-nil, is invoked with each finished power
	// segment in time order as the event loop advances. It lets
	// measurement consumers stream the power trace without retaining
	// the whole timeline (RecordTimeline) and replaying it afterwards.
	// The callback runs on the simulating goroutine and must not block.
	OnSegment func(Segment)
	// ObsTrack, when tracing is enabled, is the span track the
	// simulation's "sim.run" span lands on (typically the driver
	// worker executing this cell). The zero Track targets "main".
	ObsTrack obs.Track
}

// Validate reports a descriptive error when the configuration cannot
// run on machine m: the worker count must be positive and must not
// exceed the machine's cores. Run panics with the same message; callers
// that take worker counts from user input (CLIs, sweep drivers) should
// call Validate at the boundary instead of relying on that panic.
func (cfg Config) Validate(m *hw.Machine) error {
	switch {
	case cfg.Workers <= 0:
		return fmt.Errorf("sim: worker count must be positive, got %d", cfg.Workers)
	case cfg.Workers > m.Cores:
		return fmt.Errorf("sim: %d workers exceed machine %q's %d cores",
			cfg.Workers, m.Name, m.Cores)
	}
	return nil
}

// LeafSpan is one scheduled leaf occurrence for Gantt rendering.
type LeafSpan struct {
	Worker     int
	Start, End float64
	Kind       task.Kind
	Label      string
}

// Segment is one interval of the execution timeline during which the
// set of running leaves — and therefore power — was constant.
type Segment struct {
	Start, End float64
	Power      hw.PlanePower
}

// Result summarizes a simulated execution.
type Result struct {
	// Makespan is the virtual wall time in seconds.
	Makespan float64
	// EnergyPKG, EnergyPP0 and EnergyDRAM are integrated joules per
	// RAPL plane (PKG includes PP0, as in real RAPL).
	EnergyPKG, EnergyPP0, EnergyDRAM float64
	// Leaves is the number of executed leaf tasks.
	Leaves int
	// RemoteBytes is total communication charged by affinity tracking.
	RemoteBytes float64
	// StolenLeaves counts leaves that executed away from their
	// preferred (producer) worker.
	StolenLeaves int
	// WorkerBusy is per-worker busy time in seconds.
	WorkerBusy []float64
	// BusyByKind decomposes total busy seconds by leaf kind — where
	// the cycles went (multiply kernels vs additions vs copies).
	BusyByKind map[task.Kind]float64
	// AllocHighWater is the peak of live temporary-buffer bytes
	// actually reached under this schedule.
	AllocHighWater float64
	// Timeline is the power trace; nil unless Config.RecordTimeline.
	Timeline []Segment
	// Schedule is the per-leaf placement record; nil unless
	// Config.RecordSchedule.
	Schedule []LeafSpan
}

// AvgPowerPKG returns average package watts over the makespan.
func (r *Result) AvgPowerPKG() float64 { return safeDiv(r.EnergyPKG, r.Makespan) }

// AvgPowerPP0 returns average core-plane watts over the makespan.
func (r *Result) AvgPowerPP0() float64 { return safeDiv(r.EnergyPP0, r.Makespan) }

// AvgPowerDRAM returns average DRAM-plane watts over the makespan.
func (r *Result) AvgPowerDRAM() float64 { return safeDiv(r.EnergyDRAM, r.Makespan) }

// AvgPowerTotal returns average full-system watts (PKG + DRAM).
func (r *Result) AvgPowerTotal() float64 {
	return safeDiv(r.EnergyPKG+r.EnergyDRAM, r.Makespan)
}

// EnergyTotal returns full-system joules (PKG + DRAM).
func (r *Result) EnergyTotal() float64 { return r.EnergyPKG + r.EnergyDRAM }

// Utilization returns mean worker busy fraction over the makespan.
func (r *Result) Utilization() float64 {
	if r.Makespan == 0 || len(r.WorkerBusy) == 0 {
		return 0
	}
	sum := 0.0
	for _, b := range r.WorkerBusy {
		sum += b
	}
	return sum / (r.Makespan * float64(len(r.WorkerBusy)))
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nodeState is per-node runtime bookkeeping.
type nodeState struct {
	n         *task.Node
	parent    *nodeState
	pending   int       // outstanding children (Par) — Seq uses nextChild
	nextChild int       // next child index to start (Seq)
	failGen   int       // idle generation at last failed placement (ready leaves)
	mask      task.Mask // effective affinity inherited from ancestors
}

// runningLeaf is one dispatched leaf awaiting its virtual finish time.
type runningLeaf struct {
	state    *nodeState
	worker   int
	finish   float64
	seq      int // dispatch order, for deterministic tie-breaks
	activity hw.Activity
}

type leafHeap []*runningLeaf

func (h leafHeap) Len() int { return len(h) }
func (h leafHeap) Less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}
func (h leafHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *leafHeap) Push(x any)   { *h = append(*h, x.(*runningLeaf)) }
func (h *leafHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// workerState shards the scheduler's per-worker bookkeeping into one
// cache-friendly record: accumulated busy time plus the FIFO of leaves
// pinned to exactly one worker (the common case under CAPS ownership),
// consumed from pinnedHead so pops are O(1) with lazy compaction.
type workerState struct {
	busyTotal  float64
	pinned     []*nodeState
	pinnedHead int
}

// ksum is a Neumaier-compensated float accumulator. The aggregate
// power mode adds and subtracts per-leaf terms on every launch and
// retire; naive running sums would drift after millions of events,
// compensation keeps the error at one rounding of the current value.
type ksum struct{ s, c float64 }

func (k *ksum) add(x float64) {
	t := k.s + x
	if math.Abs(k.s) >= math.Abs(x) {
		k.c += (k.s - t) + x
	} else {
		k.c += (x - t) + k.s
	}
	k.s = t
}

func (k *ksum) value() float64 { return k.s + k.c }

// executor holds the state of one simulation run.
type executor struct {
	m   *hw.Machine
	cfg Config

	// ready is a FIFO of dispatchable leaves whose affinity permits
	// more than one worker. Entries claimed out of order (affinity
	// skips) are nilled and compacted lazily; readyHead tracks the
	// first live entry and readyLive the live count.
	ready     []*nodeState
	readyHead int
	readyLive int

	workers []workerState
	// idle marks workers with no running leaf; dispatchable marks the
	// subset of idle workers whose pinned FIFO is non-empty, so the
	// pinned dispatch pass visits exactly the workers it will serve
	// instead of scanning all of them.
	idle         *hbitmap
	dispatchable *hbitmap
	idleCount    int
	// idleGen counts batches of workers turning idle (one bump per
	// advance). Between bumps the idle set only shrinks, so a ready
	// leaf whose placement failed at the current generation cannot
	// succeed until the next one — dispatch skips it in O(1) instead
	// of re-running the mask/idle intersection. newIdle records the
	// latest batch: a leaf that failed in generation g-1 can only be
	// unblocked in g by a worker from that batch, so a few Mask.Has
	// probes replace the full intersection for the common case of
	// long-blocked leaves. Starts at 2 so the zero-valued failGen of a
	// fresh nodeState never matches idleGen or idleGen-1.
	idleGen int
	newIdle []int

	running leafHeap
	now     float64
	seq     int

	// lastWriter maps RegionID → last-writing worker (-1 unknown).
	// Regions allocators issue dense IDs from 1, so a flat slice beats
	// a map on the scheduler hot path; it grows by doubling on demand.
	lastWriter []int32

	// Power integration mode. With ≤ 64 workers (exact=true) each
	// segment iterates the running heap in array order — bounded work,
	// and the float-sum order is bit-identical to the seed scheduler.
	// Above 64 workers the per-activity sums are maintained
	// incrementally (aggUtil/aggL3/aggDRAM, utilization pre-clamped),
	// making each segment O(1) regardless of how many leaves run.
	exact                   bool
	actsBuf                 []hw.Activity
	aggCount                int
	aggUtil, aggL3, aggDRAM ksum

	// Hot-loop scratch, reused across events so the steady-state
	// scheduling loop performs no allocation: leafFree recycles
	// runningLeaf records, stateFree recycles the nodeStates complete
	// retires, and stateArena block-allocates the rest in blocks that
	// double from 32 to 512 states. Per-run state is therefore bounded by
	// the live frontier of the tree, not its size.
	leafFree   []*runningLeaf
	stateFree  []*nodeState
	stateArena []nodeState
	stateBlock int

	liveAlloc float64
	segCount  int
	res       Result
}

// Simulation throughput metrics, batched into the registry once per
// Run so the event loop itself stays untouched.
var (
	simRuns     = obs.GetCounter("sim.runs")
	simLeaves   = obs.GetCounter("sim.leaves.executed")
	simSegments = obs.GetCounter("sim.segments.produced")
)

// newState reuses a retired nodeState or carves one out of the arena,
// amortizing one allocation over a block of nodes.
func (e *executor) newState(n *task.Node, parent *nodeState, mask task.Mask) *nodeState {
	var s *nodeState
	if k := len(e.stateFree); k > 0 {
		s = e.stateFree[k-1]
		e.stateFree = e.stateFree[:k-1]
	} else {
		if len(e.stateArena) == 0 {
			e.stateBlock = min(max(2*e.stateBlock, 32), 512)
			e.stateArena = make([]nodeState, e.stateBlock)
		}
		s = &e.stateArena[0]
		e.stateArena = e.stateArena[1:]
	}
	*s = nodeState{n: n, parent: parent, mask: mask}
	return s
}

// writerOf returns the last worker to write region r, or -1.
func (e *executor) writerOf(r task.RegionID) int {
	if int(r) < len(e.lastWriter) {
		return int(e.lastWriter[r])
	}
	return -1
}

func (e *executor) setWriter(r task.RegionID, worker int) {
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

// Run simulates root on machine m under cfg and returns the result.
// It panics on invalid configuration (see Config.Validate for the
// checkable form); algorithmic errors in tree construction (e.g.
// impossible affinity) degrade to unrestricted placement rather than
// deadlock.
func Run(m *hw.Machine, root *task.Node, cfg Config) *Result {
	if err := cfg.Validate(m); err != nil {
		panic(err.Error())
	}
	e := &executor{
		m:            m,
		cfg:          cfg,
		workers:      make([]workerState, cfg.Workers),
		idle:         newHbitmap(cfg.Workers),
		dispatchable: newHbitmap(cfg.Workers),
		lastWriter:   make([]int32, 1024),
		running:      make(leafHeap, 0, min(cfg.Workers, 4096)),
		exact:        cfg.Workers <= 64,
		idleGen:      2, // see the idleGen field comment
	}
	for i := range e.lastWriter {
		e.lastWriter[i] = -1
	}
	if e.exact {
		e.actsBuf = make([]hw.Activity, 0, cfg.Workers)
	}
	e.res.BusyByKind = make(map[task.Kind]float64)
	for i := 0; i < cfg.Workers; i++ {
		e.idle.set(i)
	}
	e.idleCount = cfg.Workers

	var sp obs.Span
	if obs.Enabled() {
		sp = obs.StartOn(cfg.ObsTrack, "sim.run")
		sp.ArgInt("workers", cfg.Workers)
	}

	e.startNode(e.newState(root, nil, e.allMask()))
	e.dispatch()
	for len(e.running) > 0 {
		e.advance()
		e.dispatch()
	}
	e.res.Makespan = e.now
	busy := make([]float64, cfg.Workers)
	for i := range e.workers {
		busy[i] = e.workers[i].busyTotal
	}
	e.res.WorkerBusy = busy

	simRuns.Inc()
	simLeaves.Add(int64(e.res.Leaves))
	simSegments.Add(int64(e.segCount))
	if sp.Live() {
		sp.ArgInt("leaves", e.res.Leaves)
		sp.ArgInt("segments", e.segCount)
		sp.ArgFloat("makespan_s", e.res.Makespan)
	}
	sp.End()
	return &e.res
}

// allMask is the root's inherited affinity: every configured worker.
func (e *executor) allMask() task.Mask {
	if e.cfg.Workers >= 64 {
		return task.MaskRange(0, e.cfg.Workers-1)
	}
	return task.MaskOfBits(uint64(1)<<uint(e.cfg.Workers) - 1)
}

// effectiveMask intersects a node's own affinity with the inherited
// mask, falling back to the inherited mask when the intersection is
// empty (e.g. a tree built for more workers than are configured).
// Intersect is called on the inherited mask so its containment fast
// path inspects the node's (small) affinity rather than the
// potentially huge inherited range.
func (e *executor) effectiveMask(n *task.Node, inherited task.Mask) task.Mask {
	a := n.Affinity()
	if e.cfg.DisableAffinity || a.IsEmpty() {
		return inherited
	}
	m := inherited.Intersect(a)
	if m.IsEmpty() {
		return inherited
	}
	return m
}

// startNode activates a node: leaves join the ready queue; interior
// nodes start their children per Seq/Par semantics. Empty interior
// nodes complete immediately.
func (e *executor) startNode(s *nodeState) {
	e.liveAlloc += s.n.AllocBytes()
	if e.liveAlloc > e.res.AllocHighWater {
		e.res.AllocHighWater = e.liveAlloc
	}
	switch {
	case s.n.IsLeaf():
		if w := s.mask.Single(); w >= 0 && w < e.cfg.Workers {
			ws := &e.workers[w]
			ws.pinned = append(ws.pinned, s)
			if e.idle.has(w) {
				e.dispatchable.set(w)
			}
		} else {
			e.ready = append(e.ready, s)
			e.readyLive++
		}
	case s.n.IsSeq():
		if len(s.n.Children()) == 0 {
			e.complete(s)
			return
		}
		e.startChild(s, 0)
	default: // Par
		children := s.n.Children()
		if len(children) == 0 {
			e.complete(s)
			return
		}
		s.pending = len(children)
		for i := range children {
			e.startChild(s, i)
		}
	}
}

func (e *executor) startChild(parent *nodeState, idx int) {
	child := parent.n.Children()[idx]
	cs := e.newState(child, parent, e.effectiveMask(child, parent.mask))
	if parent.n.IsSeq() {
		parent.nextChild = idx + 1
	}
	e.startNode(cs)
}

// complete propagates a finished node up the tree and retires its
// state. Invariant: nothing references s once complete is called — the
// leaf has left the ready queue, its pinned FIFO slot and the running
// heap, and every child of an interior node has completed — so s goes
// straight back to the free list.
func (e *executor) complete(s *nodeState) {
	e.liveAlloc -= s.n.AllocBytes()
	p := s.parent
	// Clearing the retired state drops its tree references and makes a
	// use after retirement fail fast on the nil node.
	*s = nodeState{}
	e.stateFree = append(e.stateFree, s)
	if p == nil {
		return
	}
	if p.n.IsSeq() {
		if p.nextChild < len(p.n.Children()) {
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

// preferredWorker returns the worker that produced the leaf's inputs,
// or -1 when unknown.
func (e *executor) preferredWorker(w *task.Work) int {
	for _, r := range w.Reads {
		if wr := e.writerOf(r); wr >= 0 {
			return wr
		}
	}
	return -1
}

// dispatch greedily assigns ready leaves to idle workers at e.now.
// Each idle worker with pinned work takes one leaf from its FIFO
// (visited via the dispatchable bitmap in ascending worker order, the
// same order the seed scheduler's full scan produced); remaining idle
// workers take from the shared FIFO in order, skipping leaves whose
// affinity mask has no idle worker without losing their position.
// Launching a leaf never idles a worker or readies another leaf, so
// one pass of each phase reaches the fixpoint.
func (e *executor) dispatch() {
	for w := e.dispatchable.firstFrom(0); w >= 0; w = e.dispatchable.firstFrom(w + 1) {
		ws := &e.workers[w]
		s := ws.pinned[ws.pinnedHead]
		ws.pinned[ws.pinnedHead] = nil
		ws.pinnedHead++
		if ws.pinnedHead > 64 && ws.pinnedHead > len(ws.pinned)/2 {
			n := copy(ws.pinned, ws.pinned[ws.pinnedHead:])
			ws.pinned = ws.pinned[:n]
			ws.pinnedHead = 0
		}
		e.launch(s, w)
	}
	// Shared-FIFO pass. Launching only shrinks the idle set and never
	// adds ready leaves, so a leaf that fails placement here stays
	// unplaceable for the rest of the pass — one forward sweep visits
	// each candidate at most once and produces the same launch sequence
	// the seed scheduler's rescan-from-head loop did. The failGen memo
	// extends the same monotonicity argument across dispatch calls
	// within one idle generation.
	if e.idleCount > 0 && e.readyLive > 0 {
		for qi := e.readyHead; qi < len(e.ready) && e.idleCount > 0; qi++ {
			s := e.ready[qi]
			if s == nil || s.failGen == e.idleGen {
				continue
			}
			if s.failGen == e.idleGen-1 && len(e.newIdle) <= 8 {
				// Failed against last generation's idle set; only this
				// batch's workers could have unblocked it since.
				hit := false
				for _, w := range e.newIdle {
					if s.mask.Has(w) {
						hit = true
						break
					}
				}
				if !hit {
					s.failGen = e.idleGen
					continue
				}
			}
			worker := e.pickWorker(s)
			if worker < 0 {
				s.failGen = e.idleGen
				continue
			}
			e.ready[qi] = nil
			e.readyLive--
			e.launch(s, worker)
		}
		e.compactReady()
	}
}

// compactReady advances past consumed slots and reclaims the queue's
// prefix once it dominates the backing array.
func (e *executor) compactReady() {
	for e.readyHead < len(e.ready) && e.ready[e.readyHead] == nil {
		e.readyHead++
	}
	if e.readyHead > 64 && e.readyHead > len(e.ready)/2 {
		n := copy(e.ready, e.ready[e.readyHead:])
		e.ready = e.ready[:n]
		e.readyHead = 0
	}
}

// pickWorker selects an idle worker permitted by the leaf's mask,
// preferring the producer of its inputs; -1 when none is available.
func (e *executor) pickWorker(s *nodeState) int {
	w := s.n.Work()
	if !e.cfg.DisableAffinity {
		if pref := e.preferredWorker(w); pref >= 0 && pref < e.cfg.Workers &&
			e.idle.has(pref) && s.mask.Has(pref) {
			return pref
		}
	}
	return e.firstIdleIn(s.mask)
}

// firstIdleIn returns the lowest-indexed idle worker in mask, or -1.
// It gallops through both structures — next idle worker from the
// bitmap, next permitted worker from the mask — so contiguous CAPS
// ownership ranges and singletons resolve in O(log workers) instead of
// a linear scan.
func (e *executor) firstIdleIn(mask task.Mask) int {
	w := mask.Min()
	for w >= 0 && w < e.cfg.Workers {
		i := e.idle.firstFrom(w)
		if i < 0 {
			return -1
		}
		if mask.Has(i) {
			return i
		}
		w = mask.Next(i + 1)
	}
	return -1
}

// launch starts a leaf on a worker at e.now.
func (e *executor) launch(s *nodeState, worker int) {
	w := s.n.Work()

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

	e.idle.clear(worker)
	e.dispatchable.clear(worker)
	e.idleCount--
	e.workers[worker].busyTotal += cost.Duration
	e.res.BusyByKind[w.Kind] += cost.Duration
	e.res.Leaves++
	if e.cfg.RecordSchedule {
		e.res.Schedule = append(e.res.Schedule, LeafSpan{
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
	if !e.exact {
		e.aggCount++
		e.aggUtil.add(clamp01(cost.Utilization))
		e.aggL3.add(cost.L3Rate)
		e.aggDRAM.add(cost.DRAMRate)
	}
	heap.Push(&e.running, rl)
}

func clamp01(x float64) float64 { return math.Max(0, math.Min(1, x)) }

// getLeaf recycles runningLeaf records so the event loop stops
// allocating once the heap has reached its steady size.
func (e *executor) getLeaf() *runningLeaf {
	if n := len(e.leafFree); n > 0 {
		rl := e.leafFree[n-1]
		e.leafFree = e.leafFree[:n-1]
		return rl
	}
	return &runningLeaf{}
}

// advance integrates power up to the next completion time and retires
// every leaf finishing at that instant.
func (e *executor) advance() {
	next := e.running[0].finish
	if dt := next - e.now; dt > 0 {
		e.segCount++
		var p hw.PlanePower
		if e.exact {
			acts := e.actsBuf[:0]
			for _, rl := range e.running {
				acts = append(acts, rl.activity)
			}
			e.actsBuf = acts
			p = e.m.SegmentPower(acts)
		} else {
			p = e.m.AggregatePower(e.aggCount, e.aggUtil.value(), e.aggL3.value(), e.aggDRAM.value())
		}
		e.res.EnergyPKG += p.PKG * dt
		e.res.EnergyPP0 += p.PP0 * dt
		e.res.EnergyDRAM += p.DRAM * dt
		if e.cfg.RecordTimeline {
			e.res.Timeline = append(e.res.Timeline, Segment{Start: e.now, End: next, Power: p})
		}
		if e.cfg.OnSegment != nil {
			e.cfg.OnSegment(Segment{Start: e.now, End: next, Power: p})
		}
	}
	e.now = next
	e.idleGen++ // at least one worker turns idle below
	e.newIdle = e.newIdle[:0]
	for len(e.running) > 0 && sameTime(e.running[0].finish, e.now) {
		rl := heap.Pop(&e.running).(*runningLeaf)
		worker := rl.worker
		e.idle.set(worker)
		e.idleCount++
		e.newIdle = append(e.newIdle, worker)
		if ws := &e.workers[worker]; ws.pinnedHead < len(ws.pinned) {
			e.dispatchable.set(worker)
		}
		if !e.exact {
			e.aggCount--
			e.aggUtil.add(-clamp01(rl.activity.Utilization))
			e.aggL3.add(-rl.activity.L3Rate)
			e.aggDRAM.add(-rl.activity.DRAMRate)
		}
		s := rl.state
		rl.state = nil
		e.leafFree = append(e.leafFree, rl)
		e.complete(s)
	}
	// A fully drained machine resets the aggregate sums, discarding any
	// residual compensation error between algorithm phases.
	if !e.exact && e.aggCount == 0 {
		e.aggUtil, e.aggL3, e.aggDRAM = ksum{}, ksum{}, ksum{}
	}
}

// sameTime compares virtual timestamps with a relative epsilon so that
// float accumulation does not split a batch of simultaneous finishes.
func sameTime(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b))
}
