package task

// Flat tree storage. A built tree lives in four arrays of pointer-free
// records — nodes, leaves, child lists and region lists — plus three
// small side tables: leaf labels, affinity masks naming workers ≥ 64,
// and the Run closures of builds with real arithmetic. The GC never
// scans the record arrays, and writing them needs no write barriers.
//
// Records refer to each other by index. A node's children are a span
// of the child-list array, a leaf node points at its leaf record, and
// a leaf's Reads and Writes are one span of the region array. Child
// lists hold indices, so a subtree under several parents is stored
// once.

// Ref is the index of a node in its tree's node array.
type Ref int32

type nodeKind uint8

const (
	leafNode nodeKind = iota
	seqNode
	parNode
)

// nodeRec is the record of one tree node: 32 bytes, no pointers.
type nodeRec struct {
	// alloc is the temporary-buffer memory live while the subtree
	// executes; the simulator tracks its high-water mark.
	alloc float64
	// lo is the affinity over workers 0..63 (bit w = worker w).
	lo uint64
	// span is, for interior nodes, the index of the first child in the
	// child-list array; for leaves, the index of the leaf record.
	span int32
	// n is the number of children.
	n int32
	// wide is 1 + the index of the node's mask in Tree.wide when the
	// mask names workers ≥ 64; 0 when lo is the whole mask.
	wide int32
	kind nodeKind
}

// leafRec is the record of one leaf's Work: 48 bytes, no pointers.
type leafRec struct {
	flops, l3, dram, regionBytes float64
	// regions is the index of the leaf's first region ID: its Reads,
	// then its Writes, contiguous in one block.
	regions int32
	// label is 1 + the index of the label in Tree.labels; 0 for "".
	label           int32
	nReads, nWrites uint16
	kind            uint8
}

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

// blocks is one growable record array.
type blocks[T any] struct {
	b [][]T
	// b0 holds the first block's header, so a one-block array needs no
	// block list of its own.
	b0 [1][]T
	// n is the next free index; a span that does not fit the current
	// block's tail starts the next block, leaving the tail unused.
	n int32
}

func (s *blocks[T]) at(i int32) *T { return &s.b[i>>blockShift][i&blockMask] }

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
	if bi == len(s.b) {
		c := blockLen
		if bi == 0 {
			c = max(firstBlock, k)
			s.b = s.b0[:0]
		}
		s.b = append(s.b, make([]T, 0, c))
	}
	blk := s.b[bi]
	end := off + k
	if end > cap(blk) { // only the first block is ever short
		c := cap(blk)
		for c < end {
			c *= 2
		}
		grown := make([]T, off, min(c, blockLen))
		copy(grown, blk)
		blk = grown
	}
	s.b[bi] = blk[:end]
	s.n = int32(bi<<blockShift + end)
	return int32(bi<<blockShift + off), blk[off:end:end]
}

// push appends one element and returns its index. Pushes are never
// split by a block boundary, so consecutive pushes get consecutive
// indices.
func (s *blocks[T]) push(v T) int32 {
	i, dst := s.carve(1)
	dst[0] = v
	return i
}

// Tree is the storage of one built task tree. Trees come out of an
// Arena (or the package-level constructors, which use one); a *Node is
// a handle on one of their nodes. The accessors below read a node by
// Ref and are what the engines' hot loops use; the methods of Node are
// the slower, allocating view for tests and analysis.
//
// A Tree is immutable once built, apart from the With* annotations,
// and safe for concurrent readers.
type Tree struct {
	nodes  blocks[nodeRec]
	leaves blocks[leafRec]
	kids   blocks[Ref]
	ids    blocks[RegionID]
	labels []string
	wide   []Mask
	// runs holds Run closures by leaf index. It stays nil in
	// shape-only builds and ends at the last leaf that has one.
	runs []func()
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

// Affinity returns node r's worker mask (empty = unrestricted).
func (t *Tree) Affinity(r Ref) Mask {
	nd := t.node(r)
	if nd.wide == 0 {
		return Mask{lo: nd.lo}
	}
	return t.wide[nd.wide-1]
}

// AllocBytes returns node r's temporary-buffer annotation.
func (t *Tree) AllocBytes(r Ref) float64 { return t.node(r).alloc }

// Demand returns the cost-model inputs of leaf node r.
func (t *Tree) Demand(r Ref) Demand {
	l := t.leaf(r)
	return Demand{Kind: Kind(l.kind), Flops: l.flops, L3Bytes: l.l3, DRAMBytes: l.dram}
}

// RegionBytes returns the per-region footprint of leaf node r.
func (t *Tree) RegionBytes(r Ref) float64 { return t.leaf(r).regionBytes }

// ReadsWrites returns leaf node r's region lists. They share the
// tree's storage and must not be modified.
func (t *Tree) ReadsWrites(r Ref) (reads, writes []RegionID) {
	l := t.leaf(r)
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

// setAffinity stores m as node r's affinity. Masks naming workers ≥ 64
// go to the wide table; consecutive equal masks share one entry.
func (t *Tree) setAffinity(r Ref, m Mask) {
	nd := t.node(r)
	nd.lo, nd.wide = m.lo, 0
	if len(m.words) == 0 {
		return
	}
	if k := len(t.wide); k == 0 || !t.wide[k-1].Equal(m) {
		t.wide = append(t.wide, m)
	}
	nd.wide = int32(len(t.wide))
}
