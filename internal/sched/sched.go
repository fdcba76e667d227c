// Package sched is the real execution engine: it runs a task tree's
// leaf closures on a pool of persistent worker goroutines with
// fork-join semantics, standing in for the OpenMP task runtime the
// paper's codes used.
//
// Where the virtual-time simulator (internal/sim) models placement,
// contention and power, this engine actually computes: examples and
// correctness tests execute the same trees here and compare results.
//
// Dispatch is a shared LIFO deque of ready leaves guarded by one
// mutex: interior Seq/Par nodes are expanded into per-node join
// counters at dispatch time, so no goroutine is ever spawned per task
// — the pool's workers are created once in New and pull leaves until
// the tree drains. LIFO order pops the most recently exposed subtree
// first, which keeps a worker on the data it just produced (the same
// reason Cilk-style runtimes pop their own deque from the top). This
// makes fine-grained trees (Strassen at cutover 64 produces tens of
// thousands of leaves) cheap to execute: per-leaf overhead is two
// short critical sections, not a goroutine spawn plus channel
// round-trip.
//
// Use it on trees built WithMath at moderate problem sizes; an
// accounting-only tree runs in zero time here (no closures) and should
// go to the simulator instead.
package sched

import (
	"fmt"
	"sync"
	"time"

	"capscale/internal/obs"
	"capscale/internal/task"
)

// Dispatch metrics: run/leaf throughput is batched into the registry
// once per Run; the per-leaf occupancy gauge is only touched while
// span tracing is enabled, so the multi-million-leaves-per-second
// dispatch path stays a single atomic load when observability is off.
var (
	schedRuns        = obs.GetCounter("sched.runs")
	schedLeaves      = obs.GetCounter("sched.leaves.dispatched")
	schedBusyWorkers = obs.GetGauge("sched.workers.busy")
)

// Metrics summarizes one real execution.
type Metrics struct {
	// Wall is the measured wall-clock duration of the whole tree.
	Wall time.Duration
	// Leaves is the number of leaf tasks executed.
	Leaves int
	// PerWorkerLeaves and PerWorkerBusy attribute work to the worker
	// that executed each leaf.
	PerWorkerLeaves []int64
	PerWorkerBusy   []time.Duration
	// Flops, L3Bytes and DRAMBytes are the accounting totals of the
	// executed leaves, for feeding the power model after a live run.
	Flops     float64
	L3Bytes   float64
	DRAMBytes float64
}

// Utilization returns mean busy fraction across workers over the wall
// time.
func (m Metrics) Utilization() float64 {
	if m.Wall == 0 || len(m.PerWorkerBusy) == 0 {
		return 0
	}
	var busy time.Duration
	for _, b := range m.PerWorkerBusy {
		busy += b
	}
	return float64(busy) / (float64(m.Wall) * float64(len(m.PerWorkerBusy)))
}

// nodeState is the per-node join bookkeeping of the active run, the
// executor-side mirror of node n of the run's tree.
type nodeState struct {
	n         task.Ref
	parent    *nodeState
	pending   int // outstanding children (Par)
	nextChild int // next child index to start (Seq)
}

// runState collects the results of one Run. All fields are guarded by
// the pool's mutex.
type runState struct {
	t        *task.Tree
	leaves   int
	busy     []time.Duration
	byWorker []int64
	flops    float64
	l3       float64
	dram     float64
	panicked any
	rootDone bool
	done     chan struct{}
}

// Pool executes task trees on `workers` persistent goroutines.
type Pool struct {
	workers int

	mu     sync.Mutex
	cond   *sync.Cond // workers wait here for ready leaves
	deque  []*nodeState
	st     *runState // active run; nil while idle
	closed bool

	runMu sync.Mutex // serializes Run calls
}

// New returns a pool with the given worker count. The workers are
// spawned immediately and persist across Run calls; Close releases
// them.
func New(workers int) *Pool {
	if workers < 1 {
		panic(fmt.Sprintf("sched: workers %d", workers))
	}
	p := &Pool{workers: workers, deque: make([]*nodeState, 0, 4*workers)}
	p.cond = sync.NewCond(&p.mu)
	for i := 0; i < workers; i++ {
		go p.worker(i)
	}
	return p
}

// Workers returns the pool's parallelism bound.
func (p *Pool) Workers() int { return p.workers }

// Close stops the pool's worker goroutines. A closed pool must not
// Run again. Pools that live for the whole process need not be
// closed; the workers park on a condition variable and cost nothing
// while idle.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
}

// Run executes root and blocks until every leaf has completed. If any
// leaf panics, the remaining leaves of sequential chains are skipped
// and Run re-panics with the first value after the tree quiesces.
// Concurrent Run calls on one pool are serialized.
func (p *Pool) Run(root *task.Node) Metrics {
	p.runMu.Lock()
	defer p.runMu.Unlock()

	var sp obs.Span
	if obs.Enabled() {
		sp = obs.StartOn(obs.Track{}, "sched.run")
		sp.ArgInt("workers", p.workers)
	}

	st := &runState{
		t:        root.Tree(),
		busy:     make([]time.Duration, p.workers),
		byWorker: make([]int64, p.workers),
		done:     make(chan struct{}),
	}
	start := time.Now()

	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("sched: Run on closed pool")
	}
	p.st = st
	p.startNode(&nodeState{n: root.Ref()})
	p.mu.Unlock()

	<-st.done

	p.mu.Lock()
	p.st = nil
	p.mu.Unlock()

	wall := time.Since(start)
	schedRuns.Inc()
	schedLeaves.Add(int64(st.leaves))
	if sp.Live() {
		sp.ArgInt("leaves", st.leaves)
	}
	sp.End()
	if st.panicked != nil {
		panic(st.panicked)
	}
	return Metrics{
		Wall:            wall,
		Leaves:          st.leaves,
		PerWorkerLeaves: st.byWorker,
		PerWorkerBusy:   st.busy,
		Flops:           st.flops,
		L3Bytes:         st.l3,
		DRAMBytes:       st.dram,
	}
}

// startNode activates a node: leaves join the deque; interior nodes
// expand per Seq/Par semantics. Empty interior nodes complete
// immediately. Called with p.mu held.
func (p *Pool) startNode(s *nodeState) {
	t := p.st.t
	switch {
	case t.IsLeaf(s.n):
		p.deque = append(p.deque, s)
		p.cond.Signal()
	case t.IsSeq(s.n):
		if t.NumChildren(s.n) == 0 {
			p.complete(s)
			return
		}
		p.startChild(s, 0)
	default: // Par
		k := t.NumChildren(s.n)
		if k == 0 {
			p.complete(s)
			return
		}
		s.pending = k
		for i := 0; i < k; i++ {
			p.startChild(s, i)
		}
	}
}

func (p *Pool) startChild(parent *nodeState, idx int) {
	t := p.st.t
	if t.IsSeq(parent.n) {
		parent.nextChild = idx + 1
	}
	p.startNode(&nodeState{n: t.Child(parent.n, idx), parent: parent})
}

// complete propagates a finished node up the tree, starting successor
// Seq children as they become runnable. After a leaf panic, pending
// Seq successors are skipped so the run drains promptly. Called with
// p.mu held.
func (p *Pool) complete(s *nodeState) {
	for {
		par := s.parent
		if par == nil {
			p.st.rootDone = true
			close(p.st.done)
			return
		}
		if t := p.st.t; t.IsSeq(par.n) {
			if p.st.panicked == nil && par.nextChild < t.NumChildren(par.n) {
				p.startChild(par, par.nextChild)
				return
			}
			s = par
			continue
		}
		par.pending--
		if par.pending > 0 {
			return
		}
		s = par
	}
}

// worker is the body of one persistent pool goroutine: pop a ready
// leaf, run its closure outside the lock, fold the stats in and
// propagate completion.
func (p *Pool) worker(id int) {
	p.mu.Lock()
	for {
		for !p.closed && len(p.deque) == 0 {
			p.cond.Wait()
		}
		if p.closed {
			p.mu.Unlock()
			return
		}
		s := p.deque[len(p.deque)-1]
		p.deque[len(p.deque)-1] = nil
		p.deque = p.deque[:len(p.deque)-1]
		st := p.st
		skip := st.panicked != nil
		p.mu.Unlock()

		d := st.t.Demand(s.n)
		run := st.t.Run(s.n)
		var busy time.Duration
		if !skip && run != nil {
			observed := obs.Enabled()
			if observed {
				schedBusyWorkers.Add(1)
			}
			t0 := time.Now()
			func() {
				defer func() {
					if v := recover(); v != nil {
						p.mu.Lock()
						if st.panicked == nil {
							st.panicked = v
						}
						p.mu.Unlock()
					}
				}()
				run()
			}()
			busy = time.Since(t0)
			if observed {
				schedBusyWorkers.Add(-1)
			}
		}

		p.mu.Lock()
		st.leaves++
		st.byWorker[id]++
		st.busy[id] += busy
		st.flops += d.Flops
		st.l3 += d.L3Bytes
		st.dram += d.DRAMBytes
		p.complete(s)
	}
}
