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
	"slices"
	"sync"
	"unsafe"

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
// tree: 32 bytes and no pointers, since a paper-size CAPS run starts
// about 700,000. States live in executor.states and name each other by
// index there.
type nodeState struct {
	n task.Ref
	// parent is the index of the parent's state; −1 for the root.
	parent int32
	// mask is the effective affinity inherited from ancestors: −1−w
	// when it names exactly worker w, else an index in executor.masks.
	mask      int32
	pending   int32 // outstanding children (Par) — Seq uses nextChild
	nextChild int32 // next child index to start (Seq)
	// ready is the leaf's place in global ready order (leaves in a
	// mask's ready queue). It stays an int: a shared subtree launched
	// again in every iteration must not wrap the order.
	ready int
}

// runningLeaf is the leaf a worker runs, awaiting its virtual finish
// time.
type runningLeaf struct {
	finish   float64
	seq      int // dispatch order, for deterministic tie-breaks
	activity hw.Activity
	state    int32 // index in executor.states
}

// leafHeap is the running leaves as a min-heap on (finish, seq). A
// worker runs one leaf at a time, so order holds workers and leaf each
// worker's running leaf. push and pop take container/heap's exact up
// and down steps: the ≤ 64-worker power sum iterates the heap in array
// order, so its layout is part of the float-sum order the seed
// scheduler pinned.
type leafHeap struct {
	order []int32
	leaf  []runningLeaf
}

func (h *leafHeap) len() int { return len(h.order) }

// top returns the running leaf that finishes first.
func (h *leafHeap) top() *runningLeaf { return &h.leaf[h.order[0]] }

func (h *leafHeap) less(i, j int) bool {
	a, b := &h.leaf[h.order[i]], &h.leaf[h.order[j]]
	if a.finish != b.finish {
		return a.finish < b.finish
	}
	return a.seq < b.seq
}

// push adds worker w, whose leaf[w] holds the leaf it starts.
func (h *leafHeap) push(w int) {
	h.order = append(h.order, int32(w))
	q := h.order
	for j := len(q) - 1; ; {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		j = i
	}
}

// pop removes the leaf that finishes first and returns its worker; the
// leaf stays readable at leaf[w] until the worker's next push.
func (h *leafHeap) pop() int {
	q := h.order
	n := len(q) - 1
	q[0], q[n] = q[n], q[0]
	for i := 0; ; {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h.less(j2, j) {
			j = j2
		}
		if !h.less(j, i) {
			break
		}
		q[i], q[j] = q[j], q[i]
		i = j
	}
	h.order = q[:n]
	return int(q[n])
}

// fifo is a queue of ready leaves, by state index, consumed from head
// so pops are O(1). Popped slots are reclaimed once the queue drains or
// they fill more than half the backing array, so a queue that never
// drains stays proportional to the leaves it holds. Reclaiming keeps
// the backing array: a fifo retains the capacity of its peak occupancy,
// across runs too.
type fifo struct {
	items []int32
	head  int
}

func (f *fifo) len() int { return len(f.items) - f.head }

func (f *fifo) front() int32 { return f.items[f.head] }

func (f *fifo) push(s int32) { f.items = append(f.items, s) }

func (f *fifo) pop() int32 {
	s := f.items[f.head]
	f.head++
	if f.head == len(f.items) {
		f.items, f.head = f.items[:0], 0
	} else if f.head > 64 && f.head > len(f.items)/2 {
		n := copy(f.items, f.items[f.head:])
		f.items, f.head = f.items[:n], 0
	}
	return s
}

// reset empties the queue, keeping its backing array.
func (f *fifo) reset() { f.items, f.head = f.items[:0], 0 }

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

// candidate is a non-empty ready queue in the dispatch heap, named by
// its mask's index and keyed by its head's place in ready order. A
// queue's head changes only while it is out of the heap, so the key
// stays valid.
type candidate struct {
	ready int
	mask  int32
}

// queueReg links a mask's ready queue into one worker's list.
type queueReg struct {
	mask int32
	next int32 // 1 + index of the worker's next registration; 0 ends
}

// maskEntry is one distinct multi-worker effective mask of a run, in
// the mask table node states index, with the FIFO of ready leaves
// whose effective mask it is. Whether a leaf can be placed depends
// only on its mask, so the queue's head stands for all of it: when the
// head finds no idle worker, no leaf behind it can either until a
// worker of the mask turns idle.
type maskEntry struct {
	mask task.Mask
	q    fifo
	// bucket is 1 + the index of the next entry under the same maskKey
	// in executor.maskIdx; 0 ends the bucket.
	bucket int32
	// registered reports whether the queue is linked into its workers'
	// lists, which happens when its first leaf is ready; queued whether
	// it is in the candidate heap.
	registered, queued bool
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

	buffers

	lastMeet    meetKey
	lastMeetIdx int32

	readySeq int
	// checks counts pickWorker calls of the shared pass: one per leaf
	// launched from a queue, plus one per queue found blocked.
	checks int

	idleCount int
	now       float64
	seq       int

	// kinds holds each leaf kind's compute rate and busy time; Run
	// copies the busy time of the kinds that ran into Result.BusyByKind.
	kinds [256]kindStats

	// Power integration mode. With ≤ 64 workers (exact=true) each
	// segment iterates the running heap in array order — bounded work,
	// and the float-sum order is bit-identical to the seed scheduler.
	// Above 64 workers the per-activity sums are maintained
	// incrementally (aggUtil/aggL3/aggDRAM, utilization pre-clamped),
	// making each segment O(1) regardless of how many leaves run.
	exact                   bool
	aggCount                int
	aggUtil, aggL3, aggDRAM ksum

	liveAlloc float64
	segCount  int
	res       Result
}

// buffers is the storage an executor keeps from run to run: Run takes
// an executor from a pool and puts it back, so a warm run allocates
// none of this. Its records name each other by index and hold no
// pointers; only the mask table's masks do. reset empties each buffer
// by what the last run used, not by its capacity.
type buffers struct {
	// states holds node states by index: those of started, unfinished
	// nodes, and the retired ones free lists, which newState reuses
	// first, so states stays bounded by the tree's live frontier, not
	// its size.
	states []nodeState
	free   []int32

	// masks is the run's mask table: every distinct multi-worker
	// effective mask, interned once (maskIdx maps a maskKey to its
	// bucket of entries), and node states hold an index into it. A mask
	// naming one worker needs no entry: its index encodes the worker.
	// meets memoizes effectiveMask's multi-worker results per
	// (inherited index, child affinity key) pair, behind the one-entry
	// lastMeet cache, so Mask.Intersect and interning run only on a
	// memo miss. The memo holds one entry per distinct pair with a
	// multi-worker meet: at most one per annotated node of the tree,
	// unless a shared subtree runs under several masks, which adds one
	// per further mask. The table holds at most one entry more, the
	// root's. Entries past the table's length keep their queue's
	// backing array for the next run's masks.
	masks   []maskEntry
	maskIdx map[maskKey]int32
	meets   map[meetKey]int32

	// Ready leaves whose mask permits more than one worker wait in the
	// queue of their mask's table entry. cands is a min-heap of the
	// queues that may place their head, ordered by the head's ready
	// sequence, so dispatch takes queue heads in global ready order. A
	// queue whose head finds no idle worker leaves the heap; wake puts
	// it back when a worker of its mask turns idle. A queue registers
	// once with every worker of its mask (regs, linked from
	// workerState.queues), so registrations total the sizes of the
	// distinct multi-worker masks a run sees — about workers × BFS
	// levels for CAPS ownership ranges — and a retiring worker visits
	// only the queues whose mask holds it. Each queue keeps the
	// capacity of its peak occupancy, across runs too, so queue state is
	// bounded by the leaves of the trees run, not by the live frontier.
	cands []candidate
	regs  []queueReg

	workers []workerState
	// idle marks workers with no running leaf; dispatchable marks the
	// subset of idle workers whose pinned FIFO is non-empty, so the
	// pinned dispatch pass visits exactly the workers it will serve
	// instead of scanning all of them.
	idle, dispatchable hbitmap

	running leafHeap
	actsBuf []hw.Activity

	// lastWriter maps RegionID → last-writing worker (-1 unknown).
	// Regions allocators issue dense IDs from 1, so a flat slice beats
	// a map on the scheduler hot path. Its length is the extent the run
	// has written, grown by doubling; entries past it are unknown.
	lastWriter []int32
}

// reset empties the buffers for a run on the given number of workers.
func (b *buffers) reset(workers int) {
	b.states, b.free = b.states[:0], b.free[:0]
	b.masks = b.masks[:0]
	clear(b.maskIdx)
	clear(b.meets)
	b.cands, b.regs = b.cands[:0], b.regs[:0]
	if cap(b.workers) < workers {
		b.workers = make([]workerState, workers)
	}
	b.workers = b.workers[:workers]
	for i := range b.workers {
		ws := &b.workers[i]
		ws.busyTotal, ws.queues = 0, 0
		ws.pinned.reset()
	}
	b.idle.reset(workers)
	b.dispatchable.reset(workers)
	b.running.order = b.running.order[:0]
	if cap(b.running.leaf) < workers {
		b.running.leaf = make([]runningLeaf, workers)
	}
	b.running.leaf = b.running.leaf[:workers]
	b.actsBuf = b.actsBuf[:0]
	b.lastWriter = b.lastWriter[:0]
}

// bytes returns the capacity the buffers hold, in bytes.
func (b *buffers) bytes() int {
	items := 0
	for _, me := range b.masks[:cap(b.masks)] {
		items += cap(me.q.items)
	}
	for _, ws := range b.workers {
		items += cap(ws.pinned.items)
	}
	return int(unsafe.Sizeof(nodeState{}))*cap(b.states) +
		int(unsafe.Sizeof(maskEntry{}))*cap(b.masks) +
		int(unsafe.Sizeof(workerState{}))*cap(b.workers) +
		int(unsafe.Sizeof(runningLeaf{}))*cap(b.running.leaf) +
		4*(items+cap(b.free)+cap(b.lastWriter))
}

// executors holds the executors of finished runs for the next Run: as
// many as ran at once at the busiest moment, each within
// maxPooledBytes. It holds memory, never results: Run resets an
// executor before it reads one. It is a locked list, not
// a sync.Pool: a sync.Pool drops a quarter of its Puts under the race
// detector, and collections empty it while a large tree builds, so
// runs started on fresh executors at random.
var executors struct {
	sync.Mutex
	free []*executor
}

// maxPooledBytes bounds the buffers a finished run may pool. Pooled
// buffers stay live, and the collector lets the heap grow to twice
// what is live before it runs, so a pooled byte can cost two of peak
// memory. On 4 threads, Strassen's buffers at n = 2048 (1.7 MB) and
// CAPS's at n = 4096 (2.3 MB) pool; Strassen at n = 4096, whose
// frontier of 210,000 node states takes 6.7 of its 10.6 MB, leaves its
// buffers to the collector, and runs long enough to pay for fresh ones.
const maxPooledBytes = 4 << 20

// Simulation throughput metrics, batched into the registry once per
// Run so the event loop itself stays untouched.
var (
	simRuns     = obs.GetCounter("sim.runs")
	simLeaves   = obs.GetCounter("sim.leaves.executed")
	simSegments = obs.GetCounter("sim.segments.produced")
	simChecks   = obs.GetCounter("sim.dispatch.checks")
)

// newState starts bookkeeping for node n and returns its state's
// index, reusing a retired state's slot when there is one.
func (e *executor) newState(n task.Ref, parent, mask int32) int32 {
	var i int32
	if k := len(e.free); k > 0 {
		i = e.free[k-1]
		e.free = e.free[:k-1]
	} else {
		i = int32(len(e.states))
		e.states = append(e.states, nodeState{})
	}
	// Written in place: composing the state first and copying it in
	// measured slower.
	e.states[i] = nodeState{n: n, parent: parent, mask: mask}
	return i
}

// writerOf returns the last worker to write region r, or -1.
func (e *executor) writerOf(r task.RegionID) int {
	if int(r) < len(e.lastWriter) {
		return int(e.lastWriter[r])
	}
	return -1
}

func (e *executor) setWriter(r task.RegionID, worker int) {
	if n := len(e.lastWriter); int(r) >= n {
		size := max(2*n, int(r)+1, 1024)
		e.lastWriter = slices.Grow(e.lastWriter, size-n)[:size]
		for i := n; i < size; i++ {
			e.lastWriter[i] = -1
		}
	}
	e.lastWriter[r] = int32(worker)
}

// Run simulates root on machine m under cfg and returns the result.
// It panics on invalid configuration (see Config.Validate for the
// checkable form); algorithmic errors in tree construction (e.g.
// impossible affinity) degrade to unrestricted placement rather than
// deadlock. Runs may proceed concurrently, on one tree or many.
func Run(m *hw.Machine, root *task.Node, cfg Config) *Result {
	if err := cfg.Validate(m); err != nil {
		panic(err.Error())
	}
	executors.Lock()
	var e *executor
	if k := len(executors.free); k > 0 {
		e = executors.free[k-1]
		executors.free = executors.free[:k-1]
	} else {
		e = new(executor)
	}
	executors.Unlock()
	b := e.buffers
	*e = executor{m: m, cfg: cfg, t: root.Tree(), buffers: b, exact: cfg.Workers <= 64}
	e.reset(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		e.idle.set(i)
	}
	e.idleCount = cfg.Workers

	var sp obs.Span
	if obs.Enabled() {
		sp = obs.StartOn(cfg.ObsTrack, "sim.run")
		sp.ArgInt("workers", cfg.Workers)
	}

	e.startNode(e.newState(root.Ref(), -1, e.intern(e.allMask())))
	e.dispatch()
	for e.running.len() > 0 {
		e.advance()
		e.dispatch()
	}
	res := new(Result)
	*res = e.res
	res.Makespan = e.now
	res.WorkerBusy = make([]float64, cfg.Workers)
	for i := range e.workers {
		res.WorkerBusy[i] = e.workers[i].busyTotal
	}
	res.BusyByKind = make(map[task.Kind]float64)
	for k := range e.kinds {
		if ks := &e.kinds[k]; ks.seen {
			res.BusyByKind[task.Kind(k)] = ks.busy
		}
	}

	simRuns.Inc()
	simLeaves.Add(int64(res.Leaves))
	simSegments.Add(int64(e.segCount))
	simChecks.Add(int64(e.checks))
	if sp.Live() {
		sp.ArgInt("leaves", res.Leaves)
		sp.ArgInt("segments", e.segCount)
		sp.ArgFloat("makespan_s", res.Makespan)
	}
	sp.End()

	// Pool the buffers without what the caller owns: the machine, the
	// config's callback, the tree and its masks, and the result.
	for i := range e.masks {
		e.masks[i].mask = task.Mask{}
	}
	e.m, e.cfg, e.t, e.res = nil, Config{}, nil, Result{}
	if e.bytes() <= maxPooledBytes {
		executors.Lock()
		executors.free = append(executors.free, e)
		executors.Unlock()
	}
	return res
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
	head := e.maskIdx[key]
	for i := head; i != 0; i = e.masks[i-1].bucket {
		if e.masks[i-1].mask.Equal(m) {
			return i - 1
		}
	}
	i := int32(len(e.masks))
	var items []int32 // a queue's backing array from an earlier run
	if int(i) < cap(e.masks) {
		items = e.masks[:i+1][i].q.items[:0]
	}
	e.masks = append(e.masks, maskEntry{mask: m, q: fifo{items: items}, bucket: head})
	if e.maskIdx == nil {
		e.maskIdx = make(map[maskKey]int32)
	}
	e.maskIdx[key] = i + 1
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
// buffers.meets.
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

// startNode activates the node of state si: leaves join their worker's
// pinned FIFO or their mask's ready queue; interior nodes start their
// children per Seq/Par semantics. Empty interior nodes complete
// immediately.
func (e *executor) startNode(si int32) {
	t := e.t
	s := &e.states[si]
	e.liveAlloc += t.AllocBytes(s.n)
	if e.liveAlloc > e.res.AllocHighWater {
		e.res.AllocHighWater = e.liveAlloc
	}
	switch {
	case t.IsLeaf(s.n):
		if s.mask < 0 {
			w := int(-1 - s.mask)
			e.workers[w].pinned.push(si)
			if e.idle.has(w) {
				e.dispatchable.set(w)
			}
		} else {
			s.ready = e.readySeq
			e.readySeq++
			q := e.queueFor(s.mask)
			q.push(si)
			// A queue that was empty becomes a candidate; one that holds
			// older leaves is already in the heap, or blocked until wake.
			if q.len() == 1 {
				e.pushCand(s.mask)
			}
		}
	case t.IsSeq(s.n):
		if t.NumChildren(s.n) == 0 {
			e.complete(si)
			return
		}
		e.startChild(si, 0)
	default: // Par
		k := t.NumChildren(s.n)
		if k == 0 {
			e.complete(si)
			return
		}
		s.pending = int32(k)
		// Starting a child may grow e.states, so s is not used again.
		for i := 0; i < k; i++ {
			e.startChild(si, i)
		}
	}
}

// startChild starts child idx of the node of state pi.
func (e *executor) startChild(pi int32, idx int) {
	p := &e.states[pi]
	child := e.t.Child(p.n, idx)
	mask := e.effectiveMask(child, p.mask)
	if e.t.IsSeq(p.n) {
		p.nextChild = int32(idx + 1)
	}
	e.startNode(e.newState(child, pi, mask))
}

// complete propagates a finished node up the tree and retires its
// state, and each ancestor's that it finishes. Invariant: nothing
// references state si once complete is called — the leaf has left its
// ready queue or pinned FIFO and the running heap, and every child of
// an interior node has completed — so its index goes straight back to
// the free list.
func (e *executor) complete(si int32) {
	for {
		s := &e.states[si]
		e.liveAlloc -= e.t.AllocBytes(s.n)
		pi := s.parent
		// The invalid node index makes a use after retirement fail fast
		// in the tree accessors.
		*s = nodeState{n: -1, parent: -1}
		e.free = append(e.free, si)
		if pi < 0 {
			return
		}
		p := &e.states[pi]
		if e.t.IsSeq(p.n) {
			if k := int(p.nextChild); k < e.t.NumChildren(p.n) {
				e.startChild(pi, k)
				return
			}
		} else if p.pending--; p.pending != 0 {
			return
		}
		si = pi
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
		mi := e.popCand()
		q := &e.masks[mi].q
		e.checks++
		worker := e.pickWorker(q.front())
		if worker < 0 {
			continue // out of the heap until wake finds its mask a worker
		}
		si := q.pop()
		if q.len() > 0 {
			e.pushCand(mi)
		}
		e.launch(si, worker)
	}
}

// queueFor returns the ready queue of the mask at index i, registering
// it with every worker of the mask on first use. The pointer is valid
// until the mask table grows.
func (e *executor) queueFor(i int32) *fifo {
	me := &e.masks[i]
	if !me.registered {
		me.registered = true
		m := &me.mask
		for w := m.Min(); w >= 0 && w < e.cfg.Workers; w = m.Next(w + 1) {
			ws := &e.workers[w]
			e.regs = append(e.regs, queueReg{mask: i, next: ws.queues})
			ws.queues = int32(len(e.regs))
		}
	}
	return &me.q
}

// wake makes every non-empty queue whose mask holds worker w, newly
// idle, a dispatch candidate again.
func (e *executor) wake(w int) {
	for i := e.workers[w].queues; i != 0; {
		r := &e.regs[i-1]
		if me := &e.masks[r.mask]; !me.queued && me.q.len() > 0 {
			e.pushCand(r.mask)
		}
		i = r.next
	}
}

// pushCand adds the queue of the mask at index mi, non-empty and not
// queued, to the candidate heap.
func (e *executor) pushCand(mi int32) {
	me := &e.masks[mi]
	me.queued = true
	e.cands = append(e.cands, candidate{ready: e.states[me.q.front()].ready, mask: mi})
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

// popCand removes the candidate queue with the oldest head and returns
// its mask index.
func (e *executor) popCand() int32 {
	h := e.cands
	mi := h[0].mask
	e.masks[mi].queued = false
	n := len(h) - 1
	h[0] = h[n]
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
	return mi
}

// pickWorker selects an idle worker permitted by the mask of the leaf
// of state si, preferring the producer of its inputs; -1 when none is
// available.
func (e *executor) pickWorker(si int32) int {
	s := &e.states[si]
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

// launch starts the leaf of state si on a worker at e.now.
func (e *executor) launch(si int32, worker int) {
	t := e.t
	n := e.states[si].n
	d, regionBytes, reads, writes := t.LeafInputs(n)

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
		cont = e.m.Shared(e.running.len() + 1)
	}
	ks := &e.kinds[uint8(d.Kind)] // tree records hold kinds in [0,255]
	if !ks.seen {
		ks.rate, ks.seen = e.m.FlopRate(d.Kind), true
	}
	cost := e.m.CostAt(ks.rate, d, cont, remoteBytes, stolen)

	if e.cfg.VerifyNumerics {
		if run := t.Run(n); run != nil {
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
			Label:  t.Label(n),
		})
	}
	e.res.RemoteBytes += remoteBytes
	if stolen {
		e.res.StolenLeaves++
	}

	e.seq++
	if !e.exact {
		e.aggCount++
		e.aggUtil.add(clamp01(cost.Utilization))
		e.aggL3.add(cost.L3Rate)
		e.aggDRAM.add(cost.DRAMRate)
	}
	e.running.leaf[worker] = runningLeaf{
		finish: e.now + cost.Duration,
		seq:    e.seq,
		activity: hw.Activity{
			Utilization: cost.Utilization,
			DRAMRate:    cost.DRAMRate,
			L3Rate:      cost.L3Rate,
		},
		state: si,
	}
	e.running.push(worker)
}

func clamp01(x float64) float64 { return max(0, min(1, x)) }

// advance integrates power up to the next completion time and retires
// every leaf finishing at that instant.
func (e *executor) advance() {
	next := e.running.top().finish
	if dt := next - e.now; dt > 0 {
		e.segCount++
		var p hw.PlanePower
		if e.exact {
			acts := e.actsBuf[:0]
			for _, w := range e.running.order {
				acts = append(acts, e.running.leaf[w].activity)
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
	for e.running.len() > 0 && sameTime(e.running.top().finish, e.now) {
		worker := e.running.pop()
		rl := &e.running.leaf[worker]
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
		e.complete(rl.state)
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
