package task

import (
	"math"
	"math/bits"
	"sync"
	"unsafe"
)

// Flat tree storage. A built tree lives in four arrays of pointer-free
// records — nodes, leaves, child lists and region lists — plus two
// small tables of the distinct node annotations and leaf demands the
// records name, and three small side tables: leaf labels, affinity
// masks naming workers ≥ 64, and the Run closures of builds with real
// arithmetic. The GC never scans the record arrays, and writing them
// needs no write barriers.
//
// Records refer to each other by index. A node's children are a span
// of the child-list array, a leaf node points at its leaf record, and
// a leaf's Reads and Writes are one span of the region array. Child
// lists hold indices, so a subtree under several parents is stored
// once. A paper tree's hundreds of thousands of nodes carry a few
// dozen distinct annotations and demands, so records hold an index
// into those tables instead of a copy.

// Ref is the index of a node in its tree's node array.
type Ref int32

type nodeKind uint8

const (
	leafNode nodeKind = iota
	seqNode
	parNode
)

// nodeRec is the record of one tree node: 16 bytes, no pointers.
type nodeRec struct {
	// span is, for interior nodes, the index of the first child in the
	// child-list array; for leaves, the index of the leaf record.
	span int32
	// n is the number of children.
	n int32
	// ann is the index of the node's annotation in Tree.anns; 0 is the
	// zero annotation: no temporaries, unrestricted.
	ann  int32
	kind nodeKind
}

// annRec is one distinct node annotation. Its float is held as bits,
// so == compares bit patterns, as interning needs.
type annRec struct {
	// alloc is the temporary-buffer memory live while the subtree
	// executes (float64 bits); the simulator tracks its high-water
	// mark.
	alloc uint64
	// lo is the affinity over workers 0..63 (bit w = worker w).
	lo uint64
	// wide is 1 + the index of the node's mask in Tree.wide when the
	// mask names workers ≥ 64; 0 when lo is the whole mask.
	wide int32
}

func (an annRec) hash() uint64 {
	return mix(an.alloc ^ bits.RotateLeft64(an.lo, 21) ^ uint64(an.wide)<<43)
}

// leafRec is the record of one leaf's Work: 16 bytes, no pointers.
type leafRec struct {
	// regions is the index of the leaf's first region ID: its Reads,
	// then its Writes, contiguous in one block.
	regions int32
	// label is 1 + the index of the label in Tree.labels; 0 for "".
	label           int32
	nReads, nWrites uint16
	// demand is the index of the leaf's demand in Tree.demands.
	demand int32
}

// demandRec is one distinct leaf demand: the Demand and per-region
// footprint a scheduler charges. Its floats are held as bits, so ==
// compares bit patterns: interning keeps −0 apart from +0 and matches
// a NaN to itself.
type demandRec struct {
	flops, l3, dram, regionBytes uint64
	kind                         uint8
}

func (d demandRec) hash() uint64 {
	return mix(d.flops ^ bits.RotateLeft64(d.l3, 16) ^ bits.RotateLeft64(d.dram, 32) ^
		bits.RotateLeft64(d.regionBytes, 48) ^ uint64(d.kind))
}

func (d *demandRec) demand() Demand {
	return Demand{Kind: Kind(d.kind), Flops: math.Float64frombits(d.flops),
		L3Bytes: math.Float64frombits(d.l3), DRAMBytes: math.Float64frombits(d.dram)}
}

// mix spreads a record's bits into the high bits an interner's slot
// index is taken from.
func mix(h uint64) uint64 { return h * 0x9e3779b97f4a7c15 }

// Block sizing. Each array is a list of blocks of blockLen elements.
// The first block starts at firstBlock elements and doubles in place
// until it is full; every later block is allocated at blockLen and
// never moves. A tiny tree costs a few hundred bytes, and a large one
// never copies more than one block.
const (
	blockShift = 12
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
	firstBlock = 16
)

// blocks is one growable record array. Blocks are allocated at full
// length and n is the array's only fill mark, so an append writes its
// record and n, never a slice header.
type blocks[T any] struct {
	b [][]T
	// b0 holds the first block's header, so a one-block array needs no
	// block list of its own.
	b0 [1][]T
	// n is the next free index; a span that does not fit the current
	// block's tail starts the next block, leaving the tail unused.
	n int32
}

// at returns element i, which must lie below the fill: a block holds
// stale records past it once its storage has been recycled.
func (s *blocks[T]) at(i int32) *T {
	if uint32(i) >= uint32(s.n) {
		panic("task: record index at or past its array's fill (a released tree has none)")
	}
	return &s.b[i>>blockShift][i&blockMask]
}

// carve allocates k contiguous elements inside one block and returns
// the index of the first and the capacity-clipped slice holding them.
func (s *blocks[T]) carve(k int) (int32, []T) {
	if k > blockLen {
		panic("task: record span longer than a block")
	}
	bi, off := int(s.n>>blockShift), int(s.n&blockMask)
	if off+k > blockLen {
		bi, off = bi+1, 0
	}
	end := off + k
	if bi == len(s.b) {
		c := blockLen
		if bi == 0 {
			c = max(firstBlock, k)
			s.b = s.b0[:0]
		}
		s.b = append(s.b, make([]T, c))
	} else if blk := s.b[bi]; end > len(blk) { // only the first block is ever short
		c := len(blk)
		for c < end {
			c *= 2
		}
		grown := make([]T, min(c, blockLen))
		copy(grown, blk[:off])
		s.b[bi] = grown
	}
	s.n = int32(bi<<blockShift + end)
	return int32(bi<<blockShift + off), s.b[bi][off:end:end]
}

// push appends one element and returns its index. Pushes are never
// split by a block boundary, so consecutive pushes get consecutive
// indices.
func (s *blocks[T]) push(v T) int32 {
	i, dst := s.carve(1)
	dst[0] = v
	return i
}

// bytes returns the size of s's blocks.
func (s *blocks[T]) bytes() int {
	var rec T
	n := 0
	for _, b := range s.b {
		n += len(b)
	}
	return n * int(unsafe.Sizeof(rec))
}

// release moves every block of s into list's backing array, empties s
// and returns the list.
func (s *blocks[T]) release(list [][]T) [][]T {
	list = append(list[:0], s.b...)
	*s = blocks[T]{}
	return list
}

// storage is the record storage of a released Tree: every block of its
// four arrays, at full length, and its two interned tables. The next
// Arena adopts it and refills it from index 0, so a warm build
// allocates no record block.
type storage struct {
	nodes   [][]nodeRec
	leaves  [][]leafRec
	kids    [][]Ref
	ids     [][]RegionID
	anns    []annRec
	demands []demandRec
}

// storagePool holds released trees' storage for the next Arena. Like
// any sync.Pool it holds memory, never results: nothing reads a
// recycled record before a new build has overwritten it.
var storagePool sync.Pool

// maxPooledBytes bounds the record storage a released tree may pool.
// Pooled storage stays live, and the collector lets the heap grow to
// twice what is live before it runs, so a pooled byte can cost two of
// peak memory. Storage up to n = 2048 (Strassen and CAPS on 4 threads:
// 3.0 and 3.8 MB) pools; their n = 4096 trees (20.7 and 25.6 MB) go to
// the collector, and their cells run long enough to pay for a fresh
// build.
const maxPooledBytes = 4 << 20

// Tree is the storage of one built task tree. Trees come out of an
// Arena; a *Node is a handle on one of their nodes. The accessors below
// read a node by Ref, and are the only way to read a tree.
//
// A Tree is immutable once built and safe for concurrent readers until
// Release.
type Tree struct {
	nodes  blocks[nodeRec]
	leaves blocks[leafRec]
	kids   blocks[Ref]
	ids    blocks[RegionID]
	// anns and demands are the distinct node annotations and leaf
	// demands, as the Arena interned them; anns[0] is the zero
	// annotation.
	anns    []annRec
	demands []demandRec
	labels  []string
	wide    []Mask
	// runs holds Run closures by leaf index. It stays nil in
	// shape-only builds and ends at the last leaf that has one.
	runs []func()
	// store is the storage the tree adopted, nil when its blocks are
	// fresh; Release hands its block lists back in it.
	store *storage
}

// adopt makes st the empty tree's storage (fresh storage when st is
// nil) and stores the zero annotation.
func (t *Tree) adopt(st *storage) {
	if st != nil {
		t.store = st
		t.nodes.b, t.leaves.b, t.kids.b, t.ids.b = st.nodes, st.leaves, st.kids, st.ids
		t.anns, t.demands = st.anns[:0], st.demands[:0]
	}
	t.anns = append(t.anns, annRec{})
}

// Release hands the tree's record storage to the next Arena, unless it
// exceeds maxPooledBytes, and leaves the tree empty: every handle on
// it panics from then on, rather than reading another tree's records.
// Call it once nothing reads the tree any more — after the engines have
// run it and no handle is used again — and never concurrently with a
// reader. Strings and closures read from the tree (labels, Run) stay
// valid; region lists from ReadsWrites do not.
func (t *Tree) Release() {
	if st := t.release(); st != nil {
		storagePool.Put(st)
	}
}

// release empties the tree and returns its storage, or nil when the
// storage is too large to pool. The block lists are copied into the
// storage's own arrays: a first block's header lives in the tree
// (blocks.b0), which is cleared.
func (t *Tree) release() *storage {
	if t.bytes() > maxPooledBytes {
		*t = Tree{}
		return nil
	}
	st := t.store
	if st == nil {
		st = new(storage)
	}
	st.nodes = t.nodes.release(st.nodes)
	st.leaves = t.leaves.release(st.leaves)
	st.kids = t.kids.release(st.kids)
	st.ids = t.ids.release(st.ids)
	st.anns, st.demands = t.anns, t.demands
	*t = Tree{}
	return st
}

// bytes returns the size of the storage release would pool.
func (t *Tree) bytes() int {
	return t.nodes.bytes() + t.leaves.bytes() + t.kids.bytes() + t.ids.bytes() +
		cap(t.anns)*int(unsafe.Sizeof(annRec{})) + cap(t.demands)*int(unsafe.Sizeof(demandRec{}))
}

func (t *Tree) node(r Ref) *nodeRec { return t.nodes.at(int32(r)) }

func (t *Tree) leaf(r Ref) *leafRec { return t.leaves.at(t.node(r).span) }

// IsLeaf reports whether node r is a leaf.
func (t *Tree) IsLeaf(r Ref) bool { return t.node(r).kind == leafNode }

// IsSeq reports whether node r is a sequential composition.
func (t *Tree) IsSeq(r Ref) bool { return t.node(r).kind == seqNode }

// NumChildren returns the number of children of node r (0 for leaves).
func (t *Tree) NumChildren(r Ref) int { return int(t.node(r).n) }

// Child returns the k-th child of interior node r.
func (t *Tree) Child(r Ref, k int) Ref { return *t.kids.at(t.node(r).span + int32(k)) }

// ann returns node r's annotation.
func (t *Tree) ann(r Ref) *annRec { return &t.anns[t.node(r).ann] }

// Affinity returns node r's worker mask (empty = unrestricted).
func (t *Tree) Affinity(r Ref) Mask {
	an := t.ann(r)
	if an.wide == 0 {
		return Mask{lo: an.lo}
	}
	return t.wide[an.wide-1]
}

// AffinityKey stands for a node's affinity without copying its Mask:
// its annotation's low word and wide-table index. Within one tree,
// nodes with equal keys have equal masks (equal masks may still have
// different keys), and the zero key means unrestricted.
type AffinityKey struct {
	lo   uint64
	wide int32
}

// AffinityKey returns node r's affinity key.
func (t *Tree) AffinityKey(r Ref) AffinityKey {
	an := t.ann(r)
	return AffinityKey{lo: an.lo, wide: an.wide}
}

// AllocBytes returns node r's temporary-buffer annotation.
func (t *Tree) AllocBytes(r Ref) float64 { return math.Float64frombits(t.ann(r).alloc) }

// Demand returns the cost-model inputs of leaf node r.
func (t *Tree) Demand(r Ref) Demand { return t.demands[t.leaf(r).demand].demand() }

// ReadsWrites returns leaf node r's region lists. They share the
// tree's storage and must not be modified.
func (t *Tree) ReadsWrites(r Ref) (reads, writes []RegionID) { return t.regions(t.leaf(r)) }

// LeafInputs returns everything a scheduler charges leaf node r for,
// from one read of its record: its Demand, its per-region footprint
// and its region lists (as ReadsWrites).
func (t *Tree) LeafInputs(r Ref) (d Demand, regionBytes float64, reads, writes []RegionID) {
	l := t.leaf(r)
	reads, writes = t.regions(l)
	dr := &t.demands[l.demand]
	return dr.demand(), math.Float64frombits(dr.regionBytes), reads, writes
}

func (t *Tree) regions(l *leafRec) (reads, writes []RegionID) {
	mid := int(l.nReads)
	end := mid + int(l.nWrites)
	if end == 0 {
		return nil, nil
	}
	off := int(l.regions & blockMask)
	span := t.ids.b[l.regions>>blockShift][off : off+end : off+end]
	return span[:mid:mid], span[mid:]
}

// Label returns leaf node r's label.
func (t *Tree) Label(r Ref) string {
	if i := t.leaf(r).label; i > 0 {
		return t.labels[i-1]
	}
	return ""
}

// Run returns leaf node r's arithmetic closure, or nil.
func (t *Tree) Run(r Ref) func() {
	if i := t.node(r).span; int(i) < len(t.runs) {
		return t.runs[i]
	}
	return nil
}
