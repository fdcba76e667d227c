// Package task defines the fork-join intermediate representation shared
// by every multiplier in the repository and by both execution engines.
//
// An algorithm (blocked DGEMM, Strassen, CAPS) is expressed once as a
// tree of Leaf, Seq and Par nodes. The virtual-time simulator
// (internal/sim) schedules the tree onto modeled hardware and integrates
// power; the real executor (internal/sched) runs the leaves' closures on
// goroutines. Keeping one IR guarantees the two engines execute the same
// algorithmic structure.
//
// A built tree is stored as flat, pointer-free records (see Tree); a
// *Node is a handle on one of its nodes.
package task

import (
	"fmt"
	"sync/atomic"
)

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
	if atomic.AddInt32(&r.busy, 1) != 1 {
		panic("task: concurrent " + op + " — task trees must be built single-threaded")
	}
}

func (r *Regions) exit() { atomic.AddInt32(&r.busy, -1) }

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
// and the engines take. Nodes are immutable after construction except
// for the affinity and buffer annotations set by the With* methods
// during tree building. Its read methods are a convenience view that
// allocates (Children and Work build fresh values); the engines read
// the Tree by Ref instead.
type Node struct {
	t *Tree
	r Ref
}

// Tree returns the storage n lives in.
func (n *Node) Tree() *Tree { return n.t }

// Ref returns n's index in its Tree.
func (n *Node) Ref() Ref { return n.r }

// WithAffinity restricts the subtree to the workers in mask (bit i set
// means worker i may execute leaves of this subtree). A zero mask means
// unrestricted. The uint64 form only reaches workers 0..63; use
// WithAffinityMask for larger machines.
func (n *Node) WithAffinity(mask uint64) *Node { return n.WithAffinityMask(MaskOfBits(mask)) }

// WithAffinityMask restricts the subtree to the workers in m. An empty
// mask means unrestricted. It returns n for chaining.
func (n *Node) WithAffinityMask(m Mask) *Node {
	n.t.setAffinity(n.r, m)
	return n
}

// WithAlloc records that allocBytes of temporary buffer are live while
// this subtree executes. It returns n for chaining.
func (n *Node) WithAlloc(bytes float64) *Node {
	n.t.node(n.r).alloc = bytes
	return n
}

// IsLeaf reports whether n is a leaf.
func (n *Node) IsLeaf() bool { return n.t.IsLeaf(n.r) }

// IsSeq reports whether n is a sequential composition.
func (n *Node) IsSeq() bool { return n.t.IsSeq(n.r) }

// IsPar reports whether n is a parallel composition.
func (n *Node) IsPar() bool { return n.t.node(n.r).kind == parNode }

// Work returns a copy of the leaf's work descriptor; it panics for
// non-leaves. Reads and Writes share the tree's storage; setting the
// copy's fields does not change the tree.
func (n *Node) Work() *Work {
	t := n.t
	if !t.IsLeaf(n.r) {
		panic("task: Work() on non-leaf node")
	}
	d := t.Demand(n.r)
	reads, writes := t.ReadsWrites(n.r)
	return &Work{
		Label:       t.Label(n.r),
		Kind:        d.Kind,
		Flops:       d.Flops,
		L3Bytes:     d.L3Bytes,
		DRAMBytes:   d.DRAMBytes,
		Reads:       reads,
		Writes:      writes,
		RegionBytes: t.RegionBytes(n.r),
		Run:         t.Run(n.r),
	}
}

// Children returns handles on the node's children (nil for leaves).
func (n *Node) Children() []*Node {
	k := n.t.NumChildren(n.r)
	if k == 0 {
		return nil
	}
	hs := make([]Node, k)
	out := make([]*Node, k)
	for i := range hs {
		hs[i] = Node{t: n.t, r: n.t.Child(n.r, i)}
		out[i] = &hs[i]
	}
	return out
}

// Affinity returns the node's worker mask (empty = unrestricted).
func (n *Node) Affinity() Mask { return n.t.Affinity(n.r) }

// AllocBytes returns the temporary-buffer annotation.
func (n *Node) AllocBytes() float64 { return n.t.AllocBytes(n.r) }

// Walk visits every node in depth-first order, parents before children.
func (n *Node) Walk(visit func(*Node)) {
	n.t.walk(n.r, func(r Ref) { visit(&Node{t: n.t, r: r}) })
}

// Leaves returns the tree's leaves in deterministic depth-first order.
func (n *Node) Leaves() []*Node {
	var out []*Node
	n.Walk(func(m *Node) {
		if m.IsLeaf() {
			out = append(out, m)
		}
	})
	return out
}

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
