// Package task defines the fork-join intermediate representation shared
// by every multiplier in the repository and by both execution engines.
//
// An algorithm (blocked DGEMM, Strassen, CAPS) is expressed once as a
// tree of leaf, Seq and Par nodes, built by an Arena. The virtual-time
// simulator (internal/sim) schedules the tree onto modeled hardware and
// integrates power; the real executor (internal/sched) runs the leaves'
// closures on goroutines. Keeping one IR guarantees the two engines
// execute the same algorithmic structure.
//
// A built tree is stored as flat, pointer-free records (see Tree) and
// read by Ref through Tree's accessors; a *Node is the handle on one of
// its nodes that builders return and engines take.
package task

import "fmt"

// Kind classifies a leaf's dominant activity, for tracing and for the
// cost model's kernel-efficiency lookup.
type Kind int

const (
	// KindGEMM is a packed, register-blocked matrix-multiply kernel
	// (the OpenBLAS-style inner kernel).
	KindGEMM Kind = iota
	// KindBaseMul is the BOTS-style unrolled dense base-case solver
	// used below the Strassen/CAPS recursion cutover.
	KindBaseMul
	// KindAdd is an element-wise matrix addition or subtraction.
	KindAdd
	// KindCopy is a bulk copy (packing, buffer staging).
	KindCopy
	// KindOverhead is scheduling/control work with no useful flops.
	KindOverhead
)

var kindNames = [...]string{"gemm", "basemul", "add", "copy", "overhead"}

func (k Kind) String() string {
	if k < 0 || int(k) >= len(kindNames) {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return kindNames[k]
}

// RegionID identifies a block of data for affinity tracking. Algorithms
// obtain IDs from a Regions allocator; the simulator charges remote
// traffic when a leaf reads a region last written by a different worker.
type RegionID uint32

// Regions hands out unique RegionIDs. The zero value is ready to use.
//
// Invariant: tree construction is single-threaded. Regions is NOT safe
// for concurrent use — IDs must stay dense and gap-free because the
// simulator indexes its writer table by them — and now that tree
// *execution* is multi-threaded (internal/sched runs leaves on
// persistent workers) it is tempting to build trees from inside leaf
// closures; don't. New detects overlapping calls and panics rather
// than silently issuing duplicate IDs. Arena embeds Regions and puts
// every one of its allocations behind the same detector.
//
// The detector is a plain counter, not an atomic one. An overlap it
// sees still panics, but two unsynchronized increments can lose one,
// so a normal build catches most time-overlapping call pairs, not all
// of them. Under -race the race detector reports every unsynchronized
// overlap, on the counter as on the state it guards.
type Regions struct {
	next RegionID
	busy int32 // overlap detector; see New
}

// New returns a fresh, never-before-issued RegionID. It panics if it
// observes a concurrent New on the same Regions: the counter increment
// is deliberately unsynchronized (builds are single-threaded by
// contract), so an overlap would corrupt the ID sequence.
func (r *Regions) New() RegionID {
	r.enter("Regions.New")
	r.next++
	id := r.next
	r.exit()
	return id
}

// enter and exit bracket every mutation of a build's allocator state
// (Regions and the Arena built on it). enter panics when another call
// is already inside: the state is deliberately unsynchronized, so an
// overlap would hand out duplicate IDs or the same arena slot twice.
func (r *Regions) enter(op string) {
	r.busy++
	if r.busy != 1 {
		panic("task: concurrent " + op + " — task trees must be built single-threaded")
	}
}

func (r *Regions) exit() { r.busy-- }

// Count returns how many regions have been issued.
func (r *Regions) Count() int { return int(r.next) }

// Work describes the resource demands of one leaf task. Byte fields
// count traffic at each memory-hierarchy level beyond L1; the cost model
// turns them into time and the power model into energy.
type Work struct {
	// Label names the leaf for traces ("mul C11", "pack A").
	Label string
	// Kind selects the kernel-efficiency class.
	Kind Kind
	// Flops is the number of double-precision operations performed.
	Flops float64
	// L3Bytes is traffic served by the shared last-level cache.
	L3Bytes float64
	// DRAMBytes is traffic that misses all caches.
	DRAMBytes float64
	// Reads and Writes are the data regions the leaf touches, used for
	// communication (remote-traffic) accounting.
	Reads  []RegionID
	Writes []RegionID
	// RegionBytes is the footprint of each listed region. When the
	// scheduler places a leaf on a worker other than a read region's
	// last writer, RegionBytes of remote (cache-to-cache) traffic are
	// charged per such region.
	RegionBytes float64
	// Run optionally performs the leaf's real arithmetic. The simulator
	// invokes it only when configured to verify numerics; the real
	// executor always invokes it.
	Run func()
}

// Demand is the part of a leaf's Work the cost model reads.
type Demand struct {
	Kind      Kind
	Flops     float64
	L3Bytes   float64
	DRAMBytes float64
}

// Demand returns w's cost-model inputs.
func (w *Work) Demand() Demand {
	return Demand{Kind: w.Kind, Flops: w.Flops, L3Bytes: w.L3Bytes, DRAMBytes: w.DRAMBytes}
}

// Node is a handle on one node of a built Tree: what builders return
// and the engines take. Read the node through its Tree, by Ref.
type Node struct {
	t *Tree
	r Ref
}

// Tree returns the storage n lives in.
func (n *Node) Tree() *Tree { return n.t }

// Ref returns n's index in its Tree.
func (n *Node) Ref() Ref { return n.r }

// walk visits the subtree at r depth-first, parents before children.
func (t *Tree) walk(r Ref, visit func(Ref)) {
	visit(r)
	for i, k := 0, t.NumChildren(r); i < k; i++ {
		t.walk(t.Child(r, i), visit)
	}
}

// Stats aggregates structural and resource totals over a tree.
type Stats struct {
	Leaves      int
	Flops       float64
	L3Bytes     float64
	DRAMBytes   float64
	Depth       int     // maximum nesting depth
	AllocPeak   float64 // worst-case live temporary bytes along any path
	FlopsByKind map[Kind]float64
}

// Collect computes Stats for the tree rooted at n.
//
// AllocPeak is the structural worst case: along a Seq, sibling buffers
// are not live simultaneously (max); along a Par they may all be live
// (sum). The simulator separately reports the *scheduled* high-water,
// which can be lower when the executor runs Par children sequentially.
func Collect(n *Node) Stats {
	t := n.t
	s := Stats{FlopsByKind: make(map[Kind]float64)}
	var rec func(r Ref, depth int) float64 // returns live-alloc bound
	rec = func(r Ref, depth int) float64 {
		if depth > s.Depth {
			s.Depth = depth
		}
		nd := t.node(r)
		live := nd.alloc
		switch nd.kind {
		case leafNode:
			d := t.Demand(r)
			s.Leaves++
			s.Flops += d.Flops
			s.L3Bytes += d.L3Bytes
			s.DRAMBytes += d.DRAMBytes
			s.FlopsByKind[d.Kind] += d.Flops
		case seqNode:
			maxChild := 0.0
			for i := 0; i < int(nd.n); i++ {
				if v := rec(t.Child(r, i), depth+1); v > maxChild {
					maxChild = v
				}
			}
			live += maxChild
		case parNode:
			for i := 0; i < int(nd.n); i++ {
				live += rec(t.Child(r, i), depth+1)
			}
		}
		if live > s.AllocPeak {
			s.AllocPeak = live
		}
		return live
	}
	rec(n.r, 1)
	return s
}

// RunSerial executes every leaf's Run closure in depth-first order on
// the calling goroutine. It is the simplest correct executor and the
// oracle the concurrent engines are tested against.
func RunSerial(n *Node) {
	n.t.walk(n.r, func(r Ref) {
		if n.t.IsLeaf(r) {
			if run := n.t.Run(r); run != nil {
				run()
			}
		}
	})
}
