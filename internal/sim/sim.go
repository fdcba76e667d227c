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
// masked lookups, per-worker pinned queues pop in O(1), and the other
// ready leaves wait in one FIFO per distinct affinity mask, so no per-
// event operation scans all workers or revisits a leaf whose mask has
// no idle worker. With ≤ 64 workers the scheduler is
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

// nodeState is per-node runtime bookkeeping for node n of the run's
// tree: 32 bytes, since a paper-size CAPS run starts about 700,000.
type nodeState struct {
	parent *nodeState
	n      task.Ref
	// mask is the effective affinity inherited from ancestors: −1−w
	// when it names exactly worker w, else an index in executor.masks.
	mask      int32
	pending   int32 // outstanding children (Par) — Seq uses nextChild
	nextChild int32 // next child index to start (Seq)
	// ready is the leaf's place in global ready order (leaves in a
	// readyQueue). It stays an int: a shared subtree launched again in
	// every iteration must not wrap the order.
	ready int
}

// runningLeaf is one dispatched leaf awaiting its virtual finish time.
type runningLeaf struct {
	state    *nodeState
	worker   int
	finish   float64
	seq      int // dispatch order, for deterministic tie-breaks
	activity hw.Activity
}

// leafHeap is the running leaves as a min-heap on (finish, seq). push
// and pop take container/heap's exact up and down steps: the ≤ 64-worker
// power sum iterates the heap in array order, so its layout is part of
// the float-sum order the seed scheduler pinned.
type leafHeap []*runningLeaf

func (h leafHeap) less(i, j int) bool {
	if h[i].finish != h[j].finish {
		return h[i].finish < h[j].finish
	}
	return h[i].seq < h[j].seq
}

func (h *leafHeap) push(rl *runningLeaf) {
	*h = append(*h, rl)
	q := *h
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

func (h *leafHeap) pop() *runningLeaf {
	q := *h
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && q.less(j2, j) {
			j = j2
		}
		if !q.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	rl := q[n]
	q[n] = nil
	*h = q[:n]
	return rl
}

// fifo is a queue of ready leaves consumed from head, so pops are O(1).
// Popped slots are cleared, and reclaimed once the queue drains or they
// fill more than half the backing array, so a queue that never drains
// stays proportional to the leaves it holds. Reclaiming keeps the
// backing array: a fifo retains the capacity of its peak occupancy.
type fifo struct {
	items []*nodeState
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) front() *nodeState { return f.items[f.head] }

func (f *fifo) push(s *nodeState) { f.items = append(f.items, s) }

func (f *fifo) pop() *nodeState {
	s := f.items[f.head]
	f.items[f.head] = nil
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	} else if f.head > 64 && f.head > len(f.items)/2 {
		n := copy(f.items, f.items[f.head:])
		f.items, f.head = f.items[:n], 0
	}
	return s
}

// workerState shards the scheduler's per-worker bookkeeping into one
// cache-friendly record: accumulated busy time, the FIFO of leaves
// pinned to exactly one worker (the common case under CAPS ownership),
// and the head of the worker's list of ready queues whose mask holds it.
type workerState struct {
	busyTotal float64
	pinned    fifo
	// queues is 1 + the index in executor.regs of the worker's first
	// queue registration; 0 when no queue's mask holds the worker.
	queues int32
}

// readyQueue is the FIFO of ready leaves whose effective mask is one
// multi-worker set. Whether a leaf can be placed depends only on its
// mask, so the queue's head stands for all of it: when the head finds
// no idle worker, no leaf behind it can either until a worker of the
// mask turns idle.
type readyQueue struct {
	fifo
	// queued reports whether the queue is in the candidate heap.
	queued bool
}

// candidate is a non-empty ready queue in the dispatch heap, keyed by
// its head's place in ready order. A queue's head changes only while
// it is out of the heap, so the key stays valid.
type candidate struct {
	ready int
	q     *readyQueue
}

// queueReg links a ready queue into one worker's list.
type queueReg struct {
	q    *readyQueue
	next int32 // 1 + index of the worker's next registration; 0 ends
}

// maskEntry is one distinct multi-worker effective mask of a run, in
// the mask table node states index.
type maskEntry struct {
	mask task.Mask
	// q is the mask's ready queue, created when its first leaf is ready.
	q *readyQueue
}

// maskKey buckets masks for interning; Mask.Equal tells apart the
// distinct masks that share a bucket.
type maskKey struct {
	lo              uint64
	min, max, count int
}

// meetKey names one effective-mask computation: a node's own affinity,
// by its tree key, met with the mask it inherits, by table index.
type meetKey struct {
	inherited int32
	aff       task.AffinityKey
}

// kindStats is the per-leaf-kind state of a run: the kind's compute
// rate (hw.Machine.FlopRate, looked up the first time the kind runs)
// and its accumulated busy seconds.
type kindStats struct {
	rate, busy float64
	seen       bool
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
	// t is the tree being simulated; the executor reads its records in
	// place, by the Refs its node states hold.
	t *task.Tree

	// masks is the run's mask table: every distinct multi-worker
	// effective mask, interned once (maskIdx buckets the entries by
	// maskKey), and node states hold an index into it. A mask naming one
	// worker needs no entry: its index encodes the worker. meets
	// memoizes effectiveMask's multi-worker results per (inherited
	// index, child affinity key) pair, behind the one-entry lastMeet
	// cache, so Mask.Intersect and interning run only on a memo miss.
	// The memo holds one entry per distinct pair with a multi-worker
	// meet: at most one per annotated node of the tree, unless a shared
	// subtree runs under several masks, which adds one per further
	// mask. The table holds at most one entry more, the root's.
	masks       []maskEntry
	maskIdx     map[maskKey][]int32
	meets       map[meetKey]int32
	lastMeet    meetKey
	lastMeetIdx int32

	// Ready leaves whose mask permits more than one worker wait in the
	// readyQueue of their mask's table entry. cands is a min-heap of the
	// queues that may place their head, ordered by the head's ready
	// sequence, so dispatch takes queue heads in global ready order. A
	// queue whose head finds no idle worker leaves the heap; wake puts
	// it back when a worker of its mask turns idle. A queue registers
	// once with every worker of its mask (regs, linked from
	// workerState.queues), so registrations total the sizes of the
	// distinct multi-worker masks a run sees — about workers × BFS
	// levels for CAPS ownership ranges — and a retiring worker visits
	// only the queues whose mask holds it. Queues live for the run and
	// each keeps the capacity of its peak occupancy, so queue state is
	// the sum of those peaks over the tree's distinct masks: bounded by
	// the tree's leaves, not by the live frontier.
	cands    []candidate
	regs     []queueReg
	readySeq int
	// checks counts pickWorker calls of the shared pass: one per leaf
	// launched from a queue, plus one per queue found blocked.
	checks int

	workers []workerState
	// idle marks workers with no running leaf; dispatchable marks the
	// subset of idle workers whose pinned FIFO is non-empty, so the
	// pinned dispatch pass visits exactly the workers it will serve
	// instead of scanning all of them.
	idle         *hbitmap
	dispatchable *hbitmap
	idleCount    int

	running leafHeap
	now     float64
	seq     int

	// kinds holds each leaf kind's compute rate and busy time; Run
	// copies the busy time of the kinds that ran into Result.BusyByKind.
	kinds [256]kindStats

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
	// double from 32 to 512 states. Node state is therefore bounded by
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
	simChecks   = obs.GetCounter("sim.dispatch.checks")
)

// newState reuses a retired nodeState or carves one out of the arena,
// amortizing one allocation over a block of nodes.
func (e *executor) newState(n task.Ref, parent *nodeState, mask int32) *nodeState {
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
		t:            root.Tree(),
		workers:      make([]workerState, cfg.Workers),
		idle:         newHbitmap(cfg.Workers),
		dispatchable: newHbitmap(cfg.Workers),
		lastWriter:   make([]int32, 1024),
		running:      make(leafHeap, 0, min(cfg.Workers, 4096)),
		exact:        cfg.Workers <= 64,
	}
	for i := range e.lastWriter {
		e.lastWriter[i] = -1
	}
	if e.exact {
		e.actsBuf = make([]hw.Activity, 0, cfg.Workers)
	}
	for i := 0; i < cfg.Workers; i++ {
		e.idle.set(i)
	}
	e.idleCount = cfg.Workers

	var sp obs.Span
	if obs.Enabled() {
		sp = obs.StartOn(cfg.ObsTrack, "sim.run")
		sp.ArgInt("workers", cfg.Workers)
	}

	e.startNode(e.newState(root.Ref(), nil, e.intern(e.allMask())))
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
	e.res.BusyByKind = make(map[task.Kind]float64)
	for k := range e.kinds {
		if ks := &e.kinds[k]; ks.seen {
			e.res.BusyByKind[task.Kind(k)] = ks.busy
		}
	}

	simRuns.Inc()
	simLeaves.Add(int64(e.res.Leaves))
	simSegments.Add(int64(e.segCount))
	simChecks.Add(int64(e.checks))
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

// intern returns the mask index of m: −1−w when m names exactly worker
// w, else m's entry in the run's mask table, added when m is new.
func (e *executor) intern(m task.Mask) int32 {
	if w := m.Single(); w >= 0 && w < e.cfg.Workers {
		return int32(-1 - w)
	}
	key := maskKey{lo: m.LowBits(), min: m.Min(), max: m.Max(), count: m.Count()}
	for _, i := range e.maskIdx[key] {
		if e.masks[i].mask.Equal(m) {
			return i
		}
	}
	i := int32(len(e.masks))
	e.masks = append(e.masks, maskEntry{mask: m})
	if e.maskIdx == nil {
		e.maskIdx = make(map[maskKey][]int32)
	}
	e.maskIdx[key] = append(e.maskIdx[key], i)
	return i
}

// effectiveMask returns the mask index of node n, started under the
// mask at index inherited: the intersection of n's own affinity with
// the inherited mask, or the inherited mask itself when n has no
// affinity, under DisableAffinity, or when the intersection is empty
// (e.g. a tree built for more workers than are configured). A pinned
// mask meets any affinity in its worker or in nothing, so a pinned
// node's subtree stays pinned. Otherwise the intersection runs only
// when the (inherited, affinity key) pair is new to the run; see
// executor.meets.
func (e *executor) effectiveMask(n task.Ref, inherited int32) int32 {
	if e.cfg.DisableAffinity || inherited < 0 {
		return inherited
	}
	aff := e.t.AffinityKey(n)
	if aff == (task.AffinityKey{}) {
		return inherited
	}
	k := meetKey{inherited: inherited, aff: aff}
	if k == e.lastMeet {
		return e.lastMeetIdx
	}
	i, ok := e.meets[k]
	if !ok {
		// Intersect is called on the inherited mask so its containment
		// fast path inspects the node's (small) affinity rather than
		// the potentially huge inherited range.
		i = inherited
		if m := e.masks[inherited].mask.Intersect(e.t.Affinity(n)); !m.IsEmpty() {
			i = e.intern(m)
		}
		// Pins are cheap to recompute and are not memoized: a tree
		// that pins each of its many subtrees to a worker of its own
		// would otherwise fill the memo with one entry per subtree.
		if i >= 0 {
			if e.meets == nil {
				e.meets = make(map[meetKey]int32)
			}
			e.meets[k] = i
		}
	}
	e.lastMeet, e.lastMeetIdx = k, i
	return i
}

// startNode activates a node: leaves join their worker's pinned FIFO
// or their mask's ready queue; interior nodes start their children per
// Seq/Par semantics. Empty interior nodes complete immediately.
func (e *executor) startNode(s *nodeState) {
	t := e.t
	e.liveAlloc += t.AllocBytes(s.n)
	if e.liveAlloc > e.res.AllocHighWater {
		e.res.AllocHighWater = e.liveAlloc
	}
	switch {
	case t.IsLeaf(s.n):
		if s.mask < 0 {
			w := int(-1 - s.mask)
			ws := &e.workers[w]
			ws.pinned.push(s)
			if e.idle.has(w) {
				e.dispatchable.set(w)
			}
		} else {
			q := e.queueFor(s.mask)
			s.ready = e.readySeq
			e.readySeq++
			q.push(s)
			// A queue that was empty becomes a candidate; one that holds
			// older leaves is already in the heap, or blocked until wake.
			if q.len() == 1 {
				e.pushCand(q)
			}
		}
	case t.IsSeq(s.n):
		if t.NumChildren(s.n) == 0 {
			e.complete(s)
			return
		}
		e.startChild(s, 0)
	default: // Par
		k := t.NumChildren(s.n)
		if k == 0 {
			e.complete(s)
			return
		}
		s.pending = int32(k)
		for i := 0; i < k; i++ {
			e.startChild(s, i)
		}
	}
}

func (e *executor) startChild(parent *nodeState, idx int) {
	child := e.t.Child(parent.n, idx)
	cs := e.newState(child, parent, e.effectiveMask(child, parent.mask))
	if e.t.IsSeq(parent.n) {
		parent.nextChild = int32(idx + 1)
	}
	e.startNode(cs)
}

// complete propagates a finished node up the tree and retires its
// state. Invariant: nothing references s once complete is called — the
// leaf has left its ready queue or pinned FIFO (both clear the slot)
// and the running heap, and every child of an interior node has
// completed — so s goes straight back to the free list.
func (e *executor) complete(s *nodeState) {
	e.liveAlloc -= e.t.AllocBytes(s.n)
	p := s.parent
	// Clearing the retired state drops its parent reference, and the
	// invalid node index makes a use after retirement fail fast in the
	// tree accessors.
	*s = nodeState{n: -1}
	e.stateFree = append(e.stateFree, s)
	if p == nil {
		return
	}
	if e.t.IsSeq(p.n) {
		if k := int(p.nextChild); k < e.t.NumChildren(p.n) {
			e.startChild(p, k)
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

// preferredWorker returns the worker that produced a leaf's inputs
// (its reads), or -1 when unknown.
func (e *executor) preferredWorker(reads []task.RegionID) int {
	for _, r := range reads {
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
// workers take the other ready leaves in ready order, skipping leaves
// whose affinity mask has no idle worker without losing their position.
// Launching a leaf never idles a worker or readies another leaf, so
// one pass of each phase reaches the fixpoint.
func (e *executor) dispatch() {
	for w := e.dispatchable.firstFrom(0); w >= 0; w = e.dispatchable.firstFrom(w + 1) {
		e.launch(e.workers[w].pinned.pop(), w)
	}
	// Shared pass. Whether a leaf can be placed depends only on its
	// mask: pickWorker finds a worker exactly when the mask holds an
	// idle one. During the pass the idle set only shrinks, so a queue
	// whose head finds none stays blocked for the rest of it, as every
	// leaf behind that head would have. Taking the oldest head of the
	// other queues each time therefore launches the same leaves, in the
	// same order, as a forward sweep of one shared FIFO.
	for e.idleCount > 0 && len(e.cands) > 0 {
		q := e.popCand()
		e.checks++
		worker := e.pickWorker(q.front())
		if worker < 0 {
			continue // out of the heap until wake finds its mask a worker
		}
		s := q.pop()
		if q.len() > 0 {
			e.pushCand(q)
		}
		e.launch(s, worker)
	}
}

// queueFor returns the ready queue of the mask at index i, creating it
// and registering it with every worker of the mask on first use.
func (e *executor) queueFor(i int32) *readyQueue {
	me := &e.masks[i]
	if me.q == nil {
		me.q = new(readyQueue)
		m := &me.mask
		for w := m.Min(); w >= 0 && w < e.cfg.Workers; w = m.Next(w + 1) {
			ws := &e.workers[w]
			e.regs = append(e.regs, queueReg{q: me.q, next: ws.queues})
			ws.queues = int32(len(e.regs))
		}
	}
	return me.q
}

// wake makes every non-empty queue whose mask holds worker w, newly
// idle, a dispatch candidate again.
func (e *executor) wake(w int) {
	for i := e.workers[w].queues; i != 0; {
		r := &e.regs[i-1]
		if q := r.q; !q.queued && q.len() > 0 {
			e.pushCand(q)
		}
		i = r.next
	}
}

// pushCand adds queue q, non-empty and not queued, to the candidate
// heap.
func (e *executor) pushCand(q *readyQueue) {
	q.queued = true
	e.cands = append(e.cands, candidate{ready: q.front().ready, q: q})
	h := e.cands
	for j := len(h) - 1; j > 0; {
		i := (j - 1) / 2
		if h[i].ready <= h[j].ready {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// popCand removes and returns the candidate queue with the oldest
// head.
func (e *executor) popCand() *readyQueue {
	h := e.cands
	q := h[0].q
	q.queued = false
	n := len(h) - 1
	h[0] = h[n]
	h[n] = candidate{}
	h = h[:n]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].ready < h[j].ready {
			j = j2
		}
		if h[i].ready <= h[j].ready {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	e.cands = h
	return q
}

// pickWorker selects an idle worker permitted by the leaf's mask,
// preferring the producer of its inputs; -1 when none is available.
func (e *executor) pickWorker(s *nodeState) int {
	m := &e.masks[s.mask].mask
	if !e.cfg.DisableAffinity {
		reads, _ := e.t.ReadsWrites(s.n)
		if pref := e.preferredWorker(reads); pref >= 0 && pref < e.cfg.Workers &&
			e.idle.has(pref) && m.Has(pref) {
			return pref
		}
	}
	return e.firstIdleIn(m)
}

// firstIdleIn returns the lowest-indexed idle worker in mask, or -1.
// It gallops through both structures — next idle worker from the
// bitmap, next permitted worker from the mask — so contiguous CAPS
// ownership ranges and singletons resolve in O(log workers) instead of
// a linear scan.
func (e *executor) firstIdleIn(mask *task.Mask) int {
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
	t := e.t
	d, regionBytes, reads, writes := t.LeafInputs(s.n)

	remoteBytes := 0.0
	stolen := false
	if !e.cfg.DisableAffinity {
		for _, r := range reads {
			if wr := e.writerOf(r); wr >= 0 && wr != worker {
				remoteBytes += regionBytes
			}
		}
		if pref := e.preferredWorker(reads); pref >= 0 && pref != worker {
			stolen = true
		}
	}

	var cont hw.Contention
	if e.cfg.DisableContention {
		cont = e.m.Uncontended()
	} else {
		cont = e.m.Shared(len(e.running) + 1)
	}
	ks := &e.kinds[uint8(d.Kind)] // tree records hold kinds in [0,255]
	if !ks.seen {
		ks.rate, ks.seen = e.m.FlopRate(d.Kind), true
	}
	cost := e.m.CostAt(ks.rate, d, cont, remoteBytes, stolen)

	if e.cfg.VerifyNumerics {
		if run := t.Run(s.n); run != nil {
			run()
		}
	}

	for _, wr := range writes {
		e.setWriter(wr, worker)
	}

	e.idle.clear(worker)
	e.dispatchable.clear(worker)
	e.idleCount--
	e.workers[worker].busyTotal += cost.Duration
	ks.busy += cost.Duration
	e.res.Leaves++
	if e.cfg.RecordSchedule {
		e.res.Schedule = append(e.res.Schedule, LeafSpan{
			Worker: worker,
			Start:  e.now,
			End:    e.now + cost.Duration,
			Kind:   d.Kind,
			Label:  t.Label(s.n),
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
	e.running.push(rl)
}

func clamp01(x float64) float64 { return max(0, min(1, x)) }

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
	for len(e.running) > 0 && sameTime(e.running[0].finish, e.now) {
		rl := e.running.pop()
		worker := rl.worker
		e.idle.set(worker)
		e.idleCount++
		ws := &e.workers[worker]
		if ws.pinned.len() > 0 {
			e.dispatchable.set(worker)
		}
		if ws.queues != 0 {
			e.wake(worker)
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
	return math.Abs(a-b) <= 1e-12*max(1, math.Abs(b))
}
