package task

import (
	"fmt"
	"math"
	"math/bits"
)

// Arena builds one Tree; it is the only way to build one. The recursive
// builders emit hundreds of thousands of leaves per tree; building
// through an Arena turns one allocation per node, per region list and
// per formatted label into one allocation per block of records:
//
//   - Leaf, Seq and Par append flat records and return the new node's
//     Ref; WithAffinityMask and WithAlloc annotate a node by Ref. A
//     leaf's demand and a node's annotation are interned: the tree
//     stores each distinct one once, and records name it by index;
//   - ReadsWrites stores a leaf's Reads and Writes in the tree's region
//     array, as one span; a Leaf given that pair references the span in
//     place, and copies any other region lists;
//   - Label interns labels by (format, ints), so each distinct label is
//     formatted once per build instead of once per leaf;
//   - Node returns the *Node handle the engines take, typically once,
//     for the root;
//   - Import copies another arena's tree in, re-interning its demands
//     and annotations, so a subtree built apart can be placed under
//     this tree's nodes.
//
// An Arena issues RegionIDs too (it embeds Regions) and obeys the same
// contract: a build is single-threaded, and every method shares the
// Regions overlap detector, panicking on concurrent use rather than
// corrupting a record. Its lifetime is one build: region IDs run on
// across calls and the handles it returns share its tree, so each tree
// gets a fresh Arena. The zero value is ready to use; its tree refills
// the storage of a released one (Tree.Release) when there is one.
type Arena struct {
	Regions
	t *Tree
	// labelKeys maps an interned (format, ints) label to its index;
	// last is the label index most recently stored or handed out, which
	// the next Leaf almost always names.
	labelKeys map[labelKey]int32
	last      int32
	// rw is the span the last ReadsWrites call stored, at index rwAt.
	rw   []RegionID
	rwAt int32
	// demands and anns intern the tree's leaf demands and node
	// annotations.
	demands interner[demandRec]
	anns    interner[annRec]
}

// internable is a record an interner can hold: its floats are held as
// bits, so == compares bit patterns.
type internable interface {
	comparable
	hash() uint64
}

// interner hands out the index of a record in a table of distinct
// records, appending the record when it is new. A lookup tries the
// index it handed out last, which builders emitting runs of alike
// leaves hit most often, then probes an open-addressed set of table
// indices kept at most half full. The set starts in the interner's own
// 64 slots, so a tree with a few dozen distinct records, as every
// paper tree is, interns them without allocating.
type interner[R internable] struct {
	// last and the slots hold 1 + a table index; 0 is empty.
	last  int32
	small [64]int32
	// big replaces small once the table outgrows half of it.
	big []int32
}

// intern returns the index of r in *table, appending r when it is new.
func (in *interner[R]) intern(table *[]R, r R) int32 {
	tab := *table
	if i := in.last; i > 0 && tab[i-1] == r {
		return i - 1
	}
	slots := in.big
	if slots == nil {
		slots = in.small[:]
	}
	s := probe(slots, tab, r)
	if slots[s] == 0 {
		tab = append(tab, r)
		*table = tab
		slots[s] = int32(len(tab))
		if 2*len(tab) > len(slots) {
			in.big = make([]int32, 2*len(slots))
			for k, x := range tab {
				in.big[probe(in.big, tab, x)] = int32(k + 1)
			}
		}
	}
	in.last = slots[s]
	return in.last - 1
}

// probe returns the slot of slots that holds r, or the empty slot
// where r goes. len(slots) is a power of two.
func probe[R internable](slots []int32, tab []R, r R) int {
	mask := len(slots) - 1
	for s := int(r.hash() >> (64 - bits.TrailingZeros(uint(len(slots))))); ; s = (s + 1) & mask {
		if i := slots[s]; i == 0 || tab[i-1] == r {
			return s
		}
	}
}

// labelKey identifies one interned label: a format and up to two
// integer arguments.
type labelKey struct {
	format string
	n      int
	args   [2]int
}

func (a *Arena) tree() *Tree {
	if a.t == nil {
		a.t = new(Tree)
		st, _ := storagePool.Get().(*storage)
		a.t.adopt(st)
	}
	return a.t
}

// Node returns a handle on node r of the arena's tree.
func (a *Arena) Node(r Ref) *Node { return &Node{t: a.tree(), r: r} }

// Leaf appends a leaf performing w and returns its Ref.
func (a *Arena) Leaf(w Work) Ref {
	return a.leaf(w.Kind, w.Flops, w.L3Bytes, w.DRAMBytes, w.RegionBytes, w.Reads, w.Writes, w.Label, w.Run)
}

// leaf takes Work's fields one by one so that, with Leaf inlined, only
// the closure leaks: callers' region slices stay on their stacks.
func (a *Arena) leaf(kind Kind, flops, l3, dram, regionBytes float64, reads, writes []RegionID, label string, run func()) Ref {
	a.enter("Arena.Leaf")
	defer a.exit()
	t := a.tree()
	if kind < 0 || kind > 255 {
		panic(fmt.Sprintf("task: leaf kind %d outside [0,255]", int(kind)))
	}
	nr, nw := len(reads), len(writes)
	if nr+nw > blockLen {
		panic(fmt.Sprintf("task: leaf lists %d regions, at most %d", nr+nw, blockLen))
	}
	d := demandRec{flops: math.Float64bits(flops), l3: math.Float64bits(l3), dram: math.Float64bits(dram),
		regionBytes: math.Float64bits(regionBytes), kind: uint8(kind)}
	li, rec := t.leaves.carve(1)
	rec[0] = leafRec{label: a.labelIndex(label), nReads: uint16(nr), nWrites: uint16(nw),
		demand: a.demands.intern(&t.demands, d)}
	if k := nr + nw; k == len(a.rw) && (nr == 0 || &reads[0] == &a.rw[0]) && (nw == 0 || &writes[0] == &a.rw[nr]) {
		rec[0].regions = a.rwAt
	} else if k > 0 {
		first, ids := t.ids.carve(k)
		copy(ids, reads)
		copy(ids[nr:], writes)
		rec[0].regions = first
	}
	if run != nil {
		for int(li) >= len(t.runs) {
			t.runs = append(t.runs, nil)
		}
		t.runs[li] = run
	}
	return Ref(t.nodes.push(nodeRec{kind: leafNode, span: li}))
}

// Seq appends a node whose children execute one after another.
func (a *Arena) Seq(children ...Ref) Ref { return a.interior("Arena.Seq", seqNode, children) }

// Par appends a node whose children may execute concurrently.
func (a *Arena) Par(children ...Ref) Ref { return a.interior("Arena.Par", parNode, children) }

func (a *Arena) interior(op string, kind nodeKind, children []Ref) Ref {
	a.enter(op)
	t := a.tree()
	nd := nodeRec{kind: kind, n: int32(len(children)), span: t.kids.n}
	for _, c := range children {
		t.kids.push(c)
	}
	r := Ref(t.nodes.push(nd))
	a.exit()
	return r
}

// WithAffinityMask restricts subtree r to the workers in m (empty:
// unrestricted) and returns r. Masks naming workers ≥ 64 go to the
// tree's wide table; consecutive equal masks share one entry.
func (a *Arena) WithAffinityMask(r Ref, m Mask) Ref {
	a.enter("Arena.WithAffinityMask")
	t := a.tree()
	nd := t.node(r)
	an := t.anns[nd.ann]
	an.lo, an.wide = m.lo, 0
	if len(m.words) > 0 {
		if k := len(t.wide); k == 0 || !t.wide[k-1].Equal(m) {
			t.wide = append(t.wide, m)
		}
		an.wide = int32(len(t.wide))
	}
	nd.ann = a.annIndex(an)
	a.exit()
	return r
}

// WithAlloc records that bytes of temporary buffer are live while
// subtree r executes, and returns r.
func (a *Arena) WithAlloc(r Ref, bytes float64) Ref {
	a.enter("Arena.WithAlloc")
	t := a.tree()
	nd := t.node(r)
	an := t.anns[nd.ann]
	an.alloc = math.Float64bits(bytes)
	nd.ann = a.annIndex(an)
	a.exit()
	return r
}

// annIndex interns annotation an; the zero annotation is index 0.
func (a *Arena) annIndex(an annRec) int32 {
	if an == (annRec{}) {
		return 0
	}
	return a.anns.intern(&a.t.anns, an)
}

// ReadsWrites stores a leaf's region lists in the tree as one span and
// returns them as two capacity-clipped sub-slices, so appending to
// either can never overwrite the other. Leaves given the returned pair
// share the span: the work-shared chunks of one operation store one
// region list.
func (a *Arena) ReadsWrites(reads []RegionID, writes ...RegionID) ([]RegionID, []RegionID) {
	a.enter("Arena.ReadsWrites")
	nr := len(reads)
	first, buf := a.tree().ids.carve(nr + len(writes))
	copy(buf, reads)
	copy(buf[nr:], writes)
	a.rw, a.rwAt = buf, first
	a.exit()
	return buf[:nr:nr], buf[nr:]
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
	i, ok := a.labelKeys[k]
	if !ok {
		vs := make([]any, len(args))
		for j, v := range args {
			vs[j] = v
		}
		i = a.addLabel(fmt.Sprintf(format, vs...))
		if a.labelKeys == nil {
			a.labelKeys = make(map[labelKey]int32)
		}
		a.labelKeys[k] = i
	}
	a.last = i
	s := a.t.labels[i-1]
	a.exit()
	return s
}

// labelIndex returns the label index of a leaf labelled s (0 for ""):
// the last label's when s repeats it — builders label a leaf right
// after Label returns its label — else a new entry's.
func (a *Arena) labelIndex(s string) int32 {
	if s == "" {
		return 0
	}
	if a.last == 0 || a.t.labels[a.last-1] != s {
		a.addLabel(s)
	}
	return a.last
}

// addLabel appends s to the label table and returns its label index.
func (a *Arena) addLabel(s string) int32 {
	t := a.tree()
	if t.labels == nil {
		t.labels = make([]string, 0, firstBlock)
	}
	t.labels = append(t.labels, s)
	a.last = int32(len(t.labels))
	return a.last
}

// Import copies the tree holding n into the arena's tree, with its
// sharing intact, and returns n's Ref there; nodes of the arena's own
// tree come back unchanged. Each call makes a new copy: import a
// subtree once and reuse its Ref to share it. The copy is a snapshot:
// later annotations on the source tree do not reach it.
func (a *Arena) Import(n *Node) Ref {
	a.enter("Arena.Import")
	defer a.exit()
	t := a.tree()
	if n.t == t {
		return n.r
	}
	src := n.t
	nodeBase, leafBase, kidBase := t.nodes.n, t.leaves.n, t.kids.n
	wideBase, labelBase := int32(len(t.wide)), int32(len(t.labels))
	t.wide = append(t.wide, src.wide...)
	t.labels = append(t.labels, src.labels...)
	// demand[i] and ann[i] are the indices here of src's demand and
	// annotation i.
	demand := make([]int32, len(src.demands))
	for i, d := range src.demands {
		demand[i] = a.demands.intern(&t.demands, d)
	}
	ann := make([]int32, len(src.anns))
	for i, an := range src.anns {
		if an.wide > 0 {
			an.wide += wideBase
		}
		ann[i] = a.annIndex(an)
	}
	for i := int32(0); i < src.kids.n; i++ {
		t.kids.push(*src.kids.at(i) + Ref(nodeBase))
	}
	for i := int32(0); i < src.leaves.n; i++ {
		l := *src.leaves.at(i)
		if k := int(l.nReads) + int(l.nWrites); k > 0 {
			first, ids := t.ids.carve(k)
			off := int(l.regions & blockMask)
			copy(ids, src.ids.b[l.regions>>blockShift][off:off+k])
			l.regions = first
		}
		if l.label > 0 {
			l.label += labelBase
		}
		l.demand = demand[l.demand]
		t.leaves.push(l)
	}
	if len(src.runs) > 0 {
		for int(leafBase)+len(src.runs) > len(t.runs) {
			t.runs = append(t.runs, nil)
		}
		copy(t.runs[leafBase:], src.runs)
	}
	for i := int32(0); i < src.nodes.n; i++ {
		nd := *src.nodes.at(i)
		if nd.kind == leafNode {
			nd.span += leafBase
		} else {
			nd.span += kidBase
		}
		nd.ann = ann[nd.ann]
		t.nodes.push(nd)
	}
	return Ref(nodeBase) + n.r
}
