package task

import "fmt"

// Arena blocks start at minBlock elements and double with each refill
// up to maxBlock, so a tiny tree costs a few hundred bytes and a large
// one allocates a block per maxBlock nodes (or child pointers, or
// region IDs).
const (
	minBlock = 16
	maxBlock = 256
)

// Arena is the block allocator of one tree build. The recursive
// builders emit hundreds of thousands of leaves per tree; building them
// through an Arena turns one allocation per node, per region list and
// per formatted label into one allocation per block:
//
//   - nodes and child lists are carved out of shared backing arrays;
//   - ReadsWrites packs a leaf's Reads and Writes into one array;
//   - Label interns labels by (format, ints), so each distinct label is
//     formatted once per build instead of once per leaf.
//
// An Arena issues RegionIDs too (it embeds Regions) and obeys the same
// contract: a build is single-threaded, and every method shares the
// Regions overlap detector, panicking on concurrent use rather than
// corrupting a block. Its lifetime is one build: region IDs run on
// across calls and the tree keeps the blocks alive, so each tree gets
// a fresh Arena. The zero value is ready to use.
type Arena struct {
	Regions
	nodes  slab[Node]
	kids   slab[*Node]
	ids    slab[RegionID]
	labels map[labelKey]string
}

// slab is the unused tail of an Arena's current block of one element
// type, plus the length of that block.
type slab[T any] struct {
	free  []T
	block int
}

// carve returns the next k elements as a capacity-clipped slice,
// refilling the slab when its block is exhausted.
func (s *slab[T]) carve(k int) []T {
	if len(s.free) < k {
		s.block = min(max(2*s.block, minBlock), maxBlock)
		s.free = make([]T, max(k, s.block))
	}
	out := s.free[:k:k]
	s.free = s.free[k:]
	return out
}

// labelKey identifies one interned label: a format and up to two
// integer arguments.
type labelKey struct {
	format string
	n      int
	args   [2]int
}

func (a *Arena) node(kind nodeKind) *Node {
	n := &a.nodes.carve(1)[0]
	n.kind = kind
	return n
}

// Leaf is the arena form of the package-level Leaf.
func (a *Arena) Leaf(w Work) *Node {
	a.enter("Arena.Leaf")
	n := a.node(leafNode)
	n.work = w
	a.exit()
	return n
}

// Seq is the arena form of the package-level Seq. Unlike Seq it copies
// children, so callers may pass a reused or stack-allocated slice.
func (a *Arena) Seq(children ...*Node) *Node { return a.interior("Arena.Seq", seqNode, children) }

// Par is the arena form of the package-level Par; it copies children.
func (a *Arena) Par(children ...*Node) *Node { return a.interior("Arena.Par", parNode, children) }

func (a *Arena) interior(op string, kind nodeKind, children []*Node) *Node {
	a.enter(op)
	n := a.node(kind)
	if len(children) > 0 {
		n.children = a.kids.carve(len(children))
		copy(n.children, children)
	}
	a.exit()
	return n
}

// ReadsWrites copies a leaf's region lists into one arena-backed array
// and returns them as two capacity-clipped sub-slices, so appending to
// either can never overwrite the other.
func (a *Arena) ReadsWrites(reads []RegionID, writes ...RegionID) ([]RegionID, []RegionID) {
	a.enter("Arena.ReadsWrites")
	r := len(reads)
	buf := a.ids.carve(r + len(writes))
	copy(buf, reads)
	copy(buf[r:], writes)
	a.exit()
	return buf[:r:r], buf[r:]
}

// Label returns fmt.Sprintf(format, args...), formatting each distinct
// (format, args) pair once per arena and handing out the same string
// afterwards. It takes at most two arguments.
func (a *Arena) Label(format string, args ...int) string {
	k := labelKey{format: format, n: len(args)}
	if len(args) > len(k.args) {
		panic(fmt.Sprintf("task: Arena.Label takes at most %d arguments, got %d", len(k.args), len(args)))
	}
	copy(k.args[:], args)
	a.enter("Arena.Label")
	s, ok := a.labels[k]
	if !ok {
		vs := make([]any, len(args))
		for i, v := range args {
			vs[i] = v
		}
		s = fmt.Sprintf(format, vs...)
		if a.labels == nil {
			a.labels = make(map[labelKey]string)
		}
		a.labels[k] = s
	}
	a.exit()
	return s
}
