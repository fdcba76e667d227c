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
// not returned, the run is deadlocked. The ranks' power deltas fold
// into one cluster timeline as the run proceeds, in (time, rank,
// emission) order, so the timeline depends neither on the schedule nor
// on when the folds happen.
package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"

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

// world is the shared state of one run. Only the rank holding the
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

	// The timeline folded so far: its segments, and the draw cur since
	// prev, the time of the last folded delta. The ranks' logs hold the
	// logged deltas not yet folded; the next fold comes once they reach
	// foldAt.
	segs           []sim.Segment
	cur            hw.PlanePower
	prev           float64
	logged, foldAt int
	merge          rankMerge
}

// minFold is the fewest logged deltas that trigger a fold, so a run
// that logs fewer folds once, at its end.
const minFold = 4096

// newWorld sets up a run of prog with one rank on each of `ranks`
// nodes of c, every rank runnable and the timeline starting at their
// idle draw.
func newWorld(c *cluster.Cluster, ranks int, prog func(*Rank)) *world {
	idle := c.Node.IdlePower()
	n := float64(ranks)
	w := &world{
		c:      c,
		prog:   prog,
		rs:     make([]*Rank, ranks),
		queues: make(map[msgKey][]message),
		runq:   make([]*Rank, ranks),
		done:   make(chan struct{}),
		cur: hw.PlanePower{
			PKG:    idle.PKG * n,
			PP0:    idle.PP0 * n,
			DRAM:   idle.DRAM * n,
			NIC:    c.Fabric.NICIdleWatts * n,
			Switch: c.Fabric.SwitchIdleWatts,
		},
		foldAt: minFold,
		merge:  rankMerge{logs: make([][]powerEvent, ranks)},
	}
	for i := range w.rs {
		w.rs[i] = &Rank{w: w, id: i, size: ranks, wake: make(chan struct{})}
		w.push(w.rs[i])
	}
	return w
}

// unwinding is the private panic value that unwinds a suspended
// rank's goroutine after another rank panicked. It never escapes
// RunTraced.
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
// is over, back to RunTraced. A panic — or a deadlock, found here when
// the last runnable rank returns while another is suspended — unwinds
// the suspended ranks one at a time before RunTraced gets the baton
// back.
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

	// The power deltas not yet folded into the timeline.
	events []powerEvent

	// Scheduling state. wake carries the baton to a suspended rank;
	// waitKey is the queue its Recv waits on.
	wake                     chan struct{}
	waitKey                  msgKey
	started, suspended, done bool
}

// emit logs one constant-power contribution over [start, end), start
// being the rank's clock, and folds the logs once they have doubled
// since the last fold.
func (r *Rank) emit(start, end float64, pw hw.PlanePower) {
	if end <= start {
		return
	}
	r.events = append(r.events, powerEvent{t: start, pw: pw}, powerEvent{t: end, pw: hw.PlanePower{}.Sub(pw)})
	w := r.w
	if w.logged += 2; w.logged >= w.foldAt {
		w.fold(w.horizon())
	}
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

// Run is RunTraced without the timeline.
func Run(c *cluster.Cluster, ranks int, prog func(*Rank)) *Result {
	res, _ := RunTraced(c, ranks, prog)
	return res
}

// RunTraced executes prog on `ranks` ranks of cluster c (one rank per
// node) and integrates cluster energy over the run. It panics on
// invalid rank counts and propagates the first rank panic. Its
// timeline is the piecewise-constant per-plane draw (node PKG/PP0/DRAM
// summed over ranks, NIC, switch) over the run's virtual time, and
// integrates exactly to Result.TotalJoules(), so it can drive the
// monitor stack (rapl.Device.Advance per segment) and reconcile against
// the run.
func RunTraced(c *cluster.Cluster, ranks int, prog func(*Rank)) (*Result, []sim.Segment) {
	if ranks <= 0 || ranks > c.Nodes {
		panic(fmt.Sprintf("mpi: %d ranks on %d nodes", ranks, c.Nodes))
	}
	w := newWorld(c, ranks, prog)
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
	return res, w.timeline(res.Makespan)
}

// horizon is the least clock of the ranks still running. A rank's
// deltas start at its clock, which only moves forward, so no rank
// emits a delta before the horizon again.
func (w *world) horizon() float64 {
	h := math.Inf(1)
	for _, r := range w.rs {
		if !r.done && r.now < h {
			h = r.now
		}
	}
	return h
}

// fold adds every logged delta earlier than h to the timeline in
// (time, rank, emission) order, and keeps the rest in their ranks'
// logs. That order is a stable time sort of the rank-ordered
// concatenation of the logs, built cheaper: each rank's log is nearly
// sorted already (its clock only moves forward; only wire-window ends
// run ahead), so it is stable-sorted on its own, and a heap of the
// ranks' heads merges the parts before h, ties going to the lower
// rank. No delta before h is emitted after the fold and none at or
// after h was folded before it, so folds at any horizons add the
// deltas in the order one fold at the end of the run would.
func (w *world) fold(h float64) {
	m := &w.merge
	for i, r := range w.rs {
		slices.SortStableFunc(r.events, func(a, b powerEvent) int { return cmp.Compare(a.t, b.t) })
		if m.logs[i] = r.events[:before(r.events, h)]; len(m.logs[i]) > 0 {
			m.heap = append(m.heap, i)
		}
	}
	for i := len(m.heap)/2 - 1; i >= 0; i-- {
		m.down(i)
	}
	for len(m.heap) > 0 {
		top := m.heap[0]
		e := m.logs[top][0]
		if e.t > w.prev {
			w.segs = append(w.segs, sim.Segment{Start: w.prev, End: e.t, Power: w.cur})
			w.prev = e.t
		}
		w.cur = w.cur.Add(e.pw)
		if m.logs[top] = m.logs[top][1:]; len(m.logs[top]) == 0 {
			last := len(m.heap) - 1
			m.heap[0] = m.heap[last]
			m.heap = m.heap[:last]
		}
		m.down(0)
	}
	w.logged = 0
	for _, r := range w.rs {
		rest := r.events[before(r.events, h):]
		r.events = r.events[:copy(r.events, rest)]
		w.logged += len(r.events)
	}
	w.foldAt = max(minFold, 2*w.logged)
}

// before returns how many deltas of a time-sorted log fall before h.
func before(log []powerEvent, h float64) int {
	k, _ := slices.BinarySearchFunc(log, h, func(e powerEvent, h float64) int { return cmp.Compare(e.t, h) })
	return k
}

// timeline folds what the logs still hold once every rank has
// returned, and closes the timeline at the makespan.
func (w *world) timeline(makespan float64) []sim.Segment {
	w.fold(math.Inf(1))
	if makespan > w.prev {
		w.segs = append(w.segs, sim.Segment{Start: w.prev, End: makespan, Power: w.cur})
	}
	return w.segs
}

// rankMerge is a binary min-heap of the ranks whose cut logs still
// hold deltas, keyed by (head delta time, rank).
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
