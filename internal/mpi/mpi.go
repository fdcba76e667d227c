// Package mpi is a message-passing layer over the simulated cluster:
// rank programs written as ordinary Go functions exchange virtual-time
// messages (LogP-style: per-message CPU overhead on both ends, wire
// latency, bandwidth-limited transfer) and advance their local clocks
// through compute phases costed by the node's machine model. Energy —
// node compute, NIC transfer, and cluster idle/switch draw — is
// integrated alongside, giving the "multifaceted model of algorithmic
// energy performance scaling" the paper's future work calls for.
//
// Determinism: ranks are goroutines, but they run one at a time. A
// rank holds the baton until it returns, panics, or receives from an
// empty (destination, source, tag) queue; it then hands the baton to
// the longest-runnable rank and suspends. A send to a rank suspended
// on exactly that queue makes it runnable. Message matching is FIFO
// per queue and receives always name their source, so every rank sees
// the same messages in the same order under any schedule, and the
// results do not depend on it. When no rank is runnable but one has
// not returned, the run is deadlocked. Traced runs merge the ranks'
// power logs in (time, rank, emission) order, so the timeline does not
// depend on the schedule either.
package mpi

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"unsafe"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
)

// ComputeWork is one local compute phase of a rank program.
type ComputeWork struct {
	// Kind selects the kernel-efficiency class of the node model.
	Kind task.Kind
	// Flops and DRAMBytes are totals for the phase.
	Flops     float64
	DRAMBytes float64
	// Cores is how many of the node's cores the phase uses (0 = all).
	Cores int
}

// Result summarizes a distributed run.
type Result struct {
	// Makespan is the latest rank finish time, seconds.
	Makespan float64
	// Energy components in joules: node activity above idle, NIC
	// transfer, and the whole-cluster idle baseline over the makespan.
	ComputeJoules float64
	NICJoules     float64
	IdleJoules    float64
	// BytesSent is total traffic offered to the fabric (bytes on the
	// wire); Messages the message count.
	BytesSent float64
	Messages  int
	// CritAlphaTerms counts exposed message latencies on the critical
	// rank: the maximum over ranks of receives that actually stalled
	// the rank's clock (arrival later than its local time). For a
	// binomial collective this is the α·⌈log P⌉ term of the critical
	// path, measured rather than modeled.
	CritAlphaTerms int
	// CritCommSeconds is the maximum over ranks of time spent
	// communicating: per-message CPU overheads plus exposed wire
	// stalls.
	CritCommSeconds float64
	// RankFinish and RankBusy are per-rank clocks and busy seconds.
	RankFinish []float64
	RankBusy   []float64
}

// TotalJoules returns the run's full energy.
func (r *Result) TotalJoules() float64 { return r.ComputeJoules + r.NICJoules + r.IdleJoules }

// AvgWatts returns mean cluster draw over the makespan.
func (r *Result) AvgWatts() float64 {
	if r.Makespan == 0 {
		return 0
	}
	return r.TotalJoules() / r.Makespan
}

// msgKey routes messages: FIFO queue per (dst, src, tag).
type msgKey struct {
	dst, src, tag int
}

type message struct {
	bytes  float64
	arrive float64
}

// world is the shared state of one Run. Only the rank holding the
// baton touches it; the channel hand-off that passes the baton orders
// every access.
type world struct {
	c    *cluster.Cluster
	prog func(*Rank)
	rs   []*Rank
	// queues holds in-flight messages.
	queues map[msgKey][]message
	// runq is the FIFO ring of runnable ranks: n of them from head.
	// No rank runnable while one is suspended is a deadlock.
	runq    []*Rank
	head, n int
	// panicked is the first rank panic; once set, the run unwinds.
	panicked any
	// done receives once every rank goroutine has returned or unwound.
	done chan struct{}
	// record arms per-rank power-event collection so the run can be
	// rendered as a cluster power timeline (RunTraced).
	record bool
}

// unwinding is the private panic value that unwinds a suspended
// rank's goroutine after another rank panicked. It never escapes Run.
type unwinding struct{}

func (w *world) push(r *Rank) {
	w.runq[(w.head+w.n)%len(w.runq)] = r
	w.n++
}

// pop returns the longest-runnable rank, or nil if none is.
func (w *world) pop() *Rank {
	if w.n == 0 {
		return nil
	}
	r := w.runq[w.head]
	w.head = (w.head + 1) % len(w.runq)
	w.n--
	return r
}

// resume hands the baton to r: it starts r's goroutine the first time
// and wakes it from its suspended Recv after that. The caller must not
// touch the world afterwards.
func (w *world) resume(r *Rank) {
	if !r.started {
		r.started = true
		go w.main(r)
		return
	}
	r.wake <- struct{}{}
}

// main is a rank goroutine: it runs the program, then passes the
// baton on from its deferred exit.
func (w *world) main(r *Rank) {
	defer func() { w.exit(r, recover()) }()
	w.prog(r)
}

// exit retires a rank whose program returned (v == nil) or panicked,
// and hands the baton on: to the next runnable rank, or, once the run
// is over, back to Run. A panic — or a deadlock, found here when the
// last runnable rank returns while another is suspended — unwinds the
// suspended ranks one at a time before Run gets the baton back.
func (w *world) exit(r *Rank, v any) {
	r.done = true
	// Ranks unwind only after panicked is set, so the first panic
	// recorded is never the sentinel.
	if v != nil && w.panicked == nil {
		w.panicked = v
	}
	if w.panicked == nil {
		if next := w.pop(); next != nil {
			w.resume(next)
			return
		}
		for _, s := range w.rs {
			if s.suspended {
				w.panicked = s.deadlock()
				break
			}
		}
	}
	if w.panicked != nil {
		for _, s := range w.rs {
			if s.started && !s.done {
				s.wake <- struct{}{}
				return
			}
		}
	}
	w.done <- struct{}{}
}

// powerEvent is a signed plane-power delta at one instant of virtual
// time: +power at a contribution's start, −power at its end. Sweeping
// the sorted deltas reconstructs the piecewise-constant cluster
// timeline.
type powerEvent struct {
	t  float64
	pw hw.PlanePower
}

// Rank is one process of the distributed program. Methods must only be
// called from the rank's own goroutine.
type Rank struct {
	w    *world
	id   int
	size int

	now     float64
	busy    float64
	energyJ float64 // activity premium above node idle
	nicJ    float64
	sent    float64
	msgs    int

	// Communication critical-path accounting.
	alphaStalls int     // receives that stalled this rank's clock
	commSec     float64 // overheads + exposed wire stalls

	// Power-event log (RunTraced only).
	events []powerEvent

	// Scheduling state. wake carries the baton to a suspended rank;
	// waitKey is the queue its Recv waits on.
	wake                     chan struct{}
	waitKey                  msgKey
	started, suspended, done bool
}

// emit records one constant-power contribution over [start, end).
func (r *Rank) emit(start, end float64, pw hw.PlanePower) {
	if !r.w.record || end <= start {
		return
	}
	r.events = append(r.events, powerEvent{t: start, pw: pw})
	r.events = append(r.events, powerEvent{t: end, pw: hw.PlanePower{}.Sub(pw)})
}

// ID returns the rank's index in [0, Size).
func (r *Rank) ID() int { return r.id }

// Size returns the communicator size.
func (r *Rank) Size() int { return r.size }

// Now returns the rank's virtual clock.
func (r *Rank) Now() float64 { return r.now }

// Compute advances the rank's clock through a local compute phase and
// integrates its energy premium over the node's idle draw.
func (r *Rank) Compute(w ComputeWork) {
	m := r.w.c.Node
	cores := w.Cores
	if cores <= 0 || cores > m.Cores {
		cores = m.Cores
	}
	perCore := &task.Work{
		Kind:      w.Kind,
		Flops:     w.Flops / float64(cores),
		DRAMBytes: w.DRAMBytes / float64(cores),
	}
	cost := m.CostLeaf(perCore, m.Shared(cores), 0, false)
	acts := make([]hw.Activity, cores)
	for i := range acts {
		acts[i] = hw.Activity{Utilization: cost.Utilization, DRAMRate: cost.DRAMRate}
	}
	planePremium := m.SegmentPower(acts).Sub(m.IdlePower())
	r.emit(r.now, r.now+cost.Duration, planePremium)
	r.now += cost.Duration
	r.busy += cost.Duration
	r.energyJ += planePremium.Total() * cost.Duration
}

// Sleep advances the rank's clock without activity.
func (r *Rank) Sleep(seconds float64) {
	if seconds < 0 {
		panic(fmt.Sprintf("mpi: negative sleep %v", seconds))
	}
	r.now += seconds
}

// Send posts bytes to rank `to` under `tag`. The sender pays the
// per-message CPU overhead; the wire time is charged to the message's
// arrival. Sends are buffered (eager) and never block.
func (r *Rank) Send(to, tag int, bytes float64) {
	if to < 0 || to >= r.size {
		panic(fmt.Sprintf("mpi: send to rank %d of %d", to, r.size))
	}
	if to == r.id {
		panic("mpi: send to self")
	}
	if bytes < 0 {
		panic(fmt.Sprintf("mpi: negative message size %v", bytes))
	}
	fab := &r.w.c.Fabric
	r.chargeOverhead()
	arrive := r.now + fab.TransferTime(bytes)
	r.sent += bytes
	r.msgs++
	r.nicJ += fab.NICPerGBs * bytes / 1e9
	// The message's full NIC transfer energy — this end's charge plus
	// the receiver's matching one — drawn evenly over the wire window.
	if wire := 2 * fab.NICPerGBs * bytes / 1e9; wire > 0 && arrive > r.now {
		r.emit(r.now, arrive, hw.PlanePower{NIC: wire / (arrive - r.now)})
	}

	w := r.w
	key := msgKey{dst: to, src: r.id, tag: tag}
	w.queues[key] = append(w.queues[key], message{bytes: bytes, arrive: arrive})
	if d := w.rs[to]; d.suspended && d.waitKey == key {
		d.suspended = false
		w.push(d)
	}
}

// Recv blocks until the next message from `from` under `tag` arrives,
// advances the clock to its arrival, pays the receive overhead, and
// returns the message size. Receiving from an unknown source or a
// cycle of waiting ranks panics with a deadlock diagnosis.
func (r *Rank) Recv(from, tag int) float64 {
	if from < 0 || from >= r.size {
		panic(fmt.Sprintf("mpi: recv from rank %d of %d", from, r.size))
	}
	if from == r.id {
		panic("mpi: recv from self")
	}
	w := r.w
	key := msgKey{dst: r.id, src: from, tag: tag}
	for len(w.queues[key]) == 0 {
		r.suspend(key)
	}
	q := w.queues[key]
	msg := q[0]
	if len(q) == 1 {
		// An emptied queue keeps its array for the key's next send.
		w.queues[key] = q[:0]
	} else {
		w.queues[key] = q[1:]
	}

	if msg.arrive > r.now {
		// The wire is on the rank's critical path: an exposed α (plus
		// serialization) stall rather than overlap with local work.
		r.alphaStalls++
		r.commSec += msg.arrive - r.now
		r.now = msg.arrive
	}
	r.chargeOverhead()
	r.nicJ += w.c.Fabric.NICPerGBs * msg.bytes / 1e9
	return msg.bytes
}

// suspend parks the rank until a send to key makes it runnable,
// handing the baton to the longest-runnable rank meanwhile. With no
// rank runnable the run is deadlocked; once another rank has panicked,
// the rank unwinds instead of waiting.
func (r *Rank) suspend(key msgKey) {
	w := r.w
	r.waitKey = key
	if w.panicked != nil {
		panic(unwinding{})
	}
	next := w.pop()
	if next == nil {
		panic(r.deadlock())
	}
	r.suspended = true
	w.resume(next)
	<-r.wake
	if w.panicked != nil {
		panic(unwinding{})
	}
}

// deadlock is the diagnosis naming a rank that waits on waitKey with
// no rank left to send to it.
func (r *Rank) deadlock() string {
	return fmt.Sprintf("mpi: deadlock — every live rank is waiting (rank %d on src %d tag %d)", r.id, r.waitKey.src, r.waitKey.tag)
}

// SendRecv exchanges messages with a partner (both directions, same
// tag) and returns the received size — the building block of the
// pairwise-exchange collectives.
func (r *Rank) SendRecv(peer, tag int, bytes float64) float64 {
	r.Send(peer, tag, bytes)
	return r.Recv(peer, tag)
}

// chargeOverhead advances the clock by the per-message CPU overhead
// and charges its energy as a lightly active core (on the PKG/PP0
// planes: message processing is core work).
func (r *Rank) chargeOverhead() {
	o := r.w.c.Fabric.PerMessageOverheadSec
	if o == 0 {
		return
	}
	m := r.w.c.Node
	premium := m.Power.CoreIdle + 0.3*m.Power.CoreDyn
	r.emit(r.now, r.now+o, hw.PlanePower{PKG: premium, PP0: premium})
	r.now += o
	r.busy += o
	r.commSec += o
	r.energyJ += premium * o
}

// Run executes prog on `ranks` ranks of cluster c (one rank per node)
// and integrates cluster energy over the run. It panics on invalid
// rank counts and propagates the first rank panic.
func Run(c *cluster.Cluster, ranks int, prog func(*Rank)) *Result {
	res, _ := run(c, ranks, prog, false)
	return res
}

// RunTraced is Run plus a cluster power timeline: the piecewise-
// constant per-plane draw (node PKG/PP0/DRAM summed over ranks, NIC,
// switch) over the run's virtual time. The timeline integrates
// exactly to Result.TotalJoules(), so it can drive the monitor stack
// (rapl.Device.Advance per segment) and reconcile against the run.
func RunTraced(c *cluster.Cluster, ranks int, prog func(*Rank)) (*Result, []sim.Segment) {
	res, rs := run(c, ranks, prog, true)
	segs := mergeTimeline(c, rs, res.Makespan)
	logs.put(rs)
	return res, segs
}

// logs recycles the ranks' power-event logs from one traced run to the
// next, up to maxPooledBytes of capacity. A DStrassen rank logs
// thousands of events; growing every rank's log afresh in each run
// made allocation, garbage collection and the page faults of memory
// handed back to the OS the bulk of a traced run's cost, and its most
// host-dependent part. The list holds memory, never results: a
// recycled log starts empty. It is a locked list with a fixed bound,
// not a sync.Pool: a sync.Pool keeps what it holds until the second
// collection after, so the less garbage the rest of the program made,
// the more logs it kept live, and the collector's heap goal doubled
// them.
var logs logList

// maxPooledBytes bounds the log capacity the list keeps. Pooled logs
// stay live, and the collector lets the heap grow to twice what is
// live before it runs, so a pooled byte can cost two of peak memory.
// The logs of a dCAPS n = 2048 run on 49 ranks fit; a DStrassen
// n = 2048 run on 64 ranks, whose logs take 12 MB, reuses what the
// list holds and grows the rest afresh.
const maxPooledBytes = 4 << 20

type logList struct {
	sync.Mutex
	free  [][]powerEvent
	bytes int // capacity of the logs in free
}

// take gives each rank of rs a recycled log while there are any.
func (l *logList) take(rs []*Rank) {
	l.Lock()
	for _, r := range rs {
		k := len(l.free)
		if k == 0 {
			break
		}
		r.events = l.free[k-1]
		l.free[k-1] = nil
		l.free = l.free[:k-1]
		l.bytes -= logBytes(r.events)
	}
	l.Unlock()
}

// put keeps the logs of rs, emptied, while they fit maxPooledBytes,
// and reorders rs. The smallest logs go in first, so the bound keeps as
// many logs as it can: a run of many short logs still reuses all of
// them after a run whose long logs filled the list.
func (l *logList) put(rs []*Rank) {
	slices.SortFunc(rs, func(a, b *Rank) int { return cmp.Compare(cap(a.events), cap(b.events)) })
	l.Lock()
	for _, r := range rs {
		if b := logBytes(r.events); b > 0 && l.bytes+b <= maxPooledBytes {
			l.free = append(l.free, r.events[:0])
			l.bytes += b
		}
		r.events = nil
	}
	l.Unlock()
}

func logBytes(log []powerEvent) int { return cap(log) * int(unsafe.Sizeof(powerEvent{})) }

func run(c *cluster.Cluster, ranks int, prog func(*Rank), record bool) (*Result, []*Rank) {
	if ranks <= 0 || ranks > c.Nodes {
		panic(fmt.Sprintf("mpi: %d ranks on %d nodes", ranks, c.Nodes))
	}
	w := &world{
		c:      c,
		prog:   prog,
		rs:     make([]*Rank, ranks),
		queues: make(map[msgKey][]message),
		runq:   make([]*Rank, ranks),
		done:   make(chan struct{}),
		record: record,
	}
	for i := range w.rs {
		w.rs[i] = &Rank{w: w, id: i, size: ranks, wake: make(chan struct{})}
		w.push(w.rs[i])
	}
	if record {
		logs.take(w.rs)
	}
	w.resume(w.pop())
	<-w.done
	if w.panicked != nil {
		panic(w.panicked)
	}

	res := &Result{
		RankFinish: make([]float64, ranks),
		RankBusy:   make([]float64, ranks),
	}
	for i, r := range w.rs {
		res.RankFinish[i] = r.now
		res.RankBusy[i] = r.busy
		res.ComputeJoules += r.energyJ
		res.NICJoules += r.nicJ
		res.BytesSent += r.sent
		res.Messages += r.msgs
		if r.now > res.Makespan {
			res.Makespan = r.now
		}
		if r.alphaStalls > res.CritAlphaTerms {
			res.CritAlphaTerms = r.alphaStalls
		}
		if r.commSec > res.CritCommSeconds {
			res.CritCommSeconds = r.commSec
		}
	}
	res.IdleJoules = c.IdlePowerFor(ranks) * res.Makespan
	return res, w.rs
}

// mergeTimeline folds every rank's signed power deltas, plus the
// cluster idle baseline over [0, makespan), into a piecewise-constant
// per-plane timeline. Deltas apply in (time, rank, emission) order, so
// equal-time deltas add in a fixed order and the timeline is
// deterministic. That is the order of a stable time sort over the
// rank-ordered concatenation of the logs, built cheaper: each rank's
// log is nearly sorted already (its clock only moves forward; only
// wire-window ends run ahead), so it is stable-sorted on its own, and
// a heap of the ranks' heads merges them, ties going to the lower rank.
func mergeTimeline(c *cluster.Cluster, rs []*Rank, makespan float64) []sim.Segment {
	if makespan <= 0 {
		return nil
	}
	idle := c.Node.IdlePower()
	n := float64(len(rs))
	base := hw.PlanePower{
		PKG:    idle.PKG * n,
		PP0:    idle.PP0 * n,
		DRAM:   idle.DRAM * n,
		NIC:    c.Fabric.NICIdleWatts * n,
		Switch: c.Fabric.SwitchIdleWatts,
	}
	m := rankMerge{logs: make([][]powerEvent, len(rs))}
	for i, r := range rs {
		slices.SortStableFunc(r.events, func(a, b powerEvent) int { return cmp.Compare(a.t, b.t) })
		m.logs[i] = r.events
		if len(r.events) > 0 {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}

	var segs []sim.Segment
	cur := base
	prev := 0.0
	for len(m.heap) > 0 {
		top := m.heap[0]
		e := m.logs[top][0]
		if e.t > prev {
			segs = append(segs, sim.Segment{Start: prev, End: e.t, Power: cur})
			prev = e.t
		}
		cur = cur.Add(e.pw)
		if m.logs[top] = m.logs[top][1:]; len(m.logs[top]) == 0 {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	if makespan > prev {
		segs = append(segs, sim.Segment{Start: prev, End: makespan, Power: cur})
	}
	return segs
}

// rankMerge is a binary min-heap of the ranks whose sorted logs still
// hold events, keyed by (head event time, rank).
type rankMerge struct {
	logs [][]powerEvent
	heap []int
}

func (m *rankMerge) less(a, b int) bool {
	ta, tb := m.logs[a][0].t, m.logs[b][0].t
	return ta < tb || ta == tb && a < b
}

// down restores the heap order below slot i.
func (m *rankMerge) down(i int) {
	h := m.heap
	for {
		least := i
		if l := 2*i + 1; l < len(h) && m.less(h[l], h[least]) {
			least = l
		}
		if r := 2*i + 2; r < len(h) && m.less(h[r], h[least]) {
			least = r
		}
		if least == i {
			return
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
}
