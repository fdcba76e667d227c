package task

import (
	"math"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestArenaBuildsTree(t *testing.T) {
	var a Arena
	kids := []Ref{a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2})}
	par := a.Par(kids...)
	kids[0] = -1 // the arena copied the list; the caller may reuse it
	root := a.Node(a.Seq(par, a.Seq()))
	if got := shape(root); got != "S(P(1 2) S())" {
		t.Fatalf("arena tree %s", got)
	}
	if s := Collect(root); s.Leaves != 2 || s.Flops != 3 {
		t.Fatalf("arena tree collects %d leaves, %v flops", s.Leaves, s.Flops)
	}
}

// shape renders a tree's structure and leaf flops.
func shape(n *Node) string {
	t := n.t
	var rec func(r Ref) string
	rec = func(r Ref) string {
		if t.IsLeaf(r) {
			return string(rune('0' + int(t.Demand(r).Flops)))
		}
		s := "P("
		if t.IsSeq(r) {
			s = "S("
		}
		for i := 0; i < t.NumChildren(r); i++ {
			if i > 0 {
				s += " "
			}
			s += rec(t.Child(r, i))
		}
		return s + ")"
	}
	return rec(n.r)
}

// Leaf copies the region lists: the caller's slices may be reused, and
// the lists it hands back are capacity-clipped views of the tree.
func TestArenaLeafCopiesRegionLists(t *testing.T) {
	var a Arena
	ids := []RegionID{1, 2, 3}
	first := a.Node(a.Leaf(Work{Reads: ids[:2], Writes: ids[2:]}))
	ids[0] = 99
	next := a.Node(a.Leaf(Work{Reads: []RegionID{4}}))
	reads, writes := first.Tree().ReadsWrites(first.Ref())
	if len(reads) != 2 || len(writes) != 1 || reads[0] != 1 || reads[1] != 2 || writes[0] != 3 {
		t.Fatalf("reads %v writes %v", reads, writes)
	}
	_ = append(reads, 99)
	_ = append(writes, 99)
	if nextReads, _ := next.Tree().ReadsWrites(next.Ref()); writes[0] != 3 || nextReads[0] != 4 {
		t.Fatal("appending to one region list overwrote its neighbour")
	}
}

// ReadsWrites stores the pair once: leaves given it share the span,
// and the halves are clipped so appending to one cannot overwrite the
// other.
func TestArenaReadsWritesAreClipped(t *testing.T) {
	var a Arena
	reads, writes := a.ReadsWrites([]RegionID{1, 2}, 3)
	x := a.Leaf(Work{Flops: 1, Reads: reads, Writes: writes})
	y := a.Leaf(Work{Flops: 2, Reads: reads, Writes: writes})
	if got := a.t.ids.n; got != 3 {
		t.Fatalf("two leaves sharing one region list stored %d IDs", got)
	}
	next, _ := a.ReadsWrites([]RegionID{4})
	_ = append(reads, 99)
	_ = append(writes, 99)
	if writes[0] != 3 || next[0] != 4 {
		t.Fatal("appending to one region list overwrote its neighbour")
	}
	for _, r := range []Ref{x, y} {
		rs, ws := a.t.ReadsWrites(r)
		if len(rs) != 2 || len(ws) != 1 || rs[1] != 2 || ws[0] != 3 {
			t.Fatalf("leaf %d: reads %v writes %v", r, rs, ws)
		}
	}
}

func TestArenaLabelInterned(t *testing.T) {
	var a Arena
	x := a.Label("basemul n%d r%d", 64, 16)
	y := a.Label("basemul n%d r%d", 64, 16)
	if x != "basemul n64 r16" || unsafe.StringData(x) != unsafe.StringData(y) {
		t.Fatalf("labels %q %q not one interned string", x, y)
	}
	if z := a.Label("basemul n%d r%d", 64); z == x {
		t.Fatal("argument count is not part of the label key")
	}
	if a.Label("c11 n%d", 32) != "c11 n32" || a.Label("pad A %d->%d", 200, 256) != "pad A 200->256" {
		t.Fatal("label formatting differs from fmt.Sprintf")
	}
	// A leaf labelled right after Label reuses the interned entry.
	l := a.Node(a.Leaf(Work{Label: a.Label("c11 n%d", 32)}))
	if got := l.Tree().Label(l.Ref()); got != "c11 n32" || len(a.t.labels) != 4 {
		t.Fatalf("leaf label %q, %d labels stored", got, len(a.t.labels))
	}
}

// The arena shares the Regions overlap detector: every allocation
// panics while another build call is inside, as Regions.New does.
func TestArenaGuardPanicsOnOverlappingUse(t *testing.T) {
	calls := map[string]func(a *Arena){
		"New":              func(a *Arena) { a.New() },
		"Leaf":             func(a *Arena) { a.Leaf(Work{}) },
		"Seq":              func(a *Arena) { a.Seq() },
		"Par":              func(a *Arena) { a.Par() },
		"WithAffinityMask": func(a *Arena) { a.WithAffinityMask(0, MaskOf(1)) },
		"WithAlloc":        func(a *Arena) { a.WithAlloc(0, 1) },
		"ReadsWrites":      func(a *Arena) { a.ReadsWrites(nil, 1) },
		"Label":            func(a *Arena) { a.Label("x%d", 1) },
		"Import": func(a *Arena) {
			var b Arena
			a.Import(b.Node(b.Leaf(Work{})))
		},
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			var a Arena
			a.Seq()                       // a node for the annotations to name
			atomic.StoreInt32(&a.busy, 1) // another goroutine is mid-call
			defer func() {
				if recover() == nil {
					t.Fatalf("no panic on overlapping Arena.%s", name)
				}
			}()
			call(&a)
		})
	}
}

// An affinity key stands for a node's mask without copying it: nodes
// whose keys are equal have equal masks, and the unrestricted node's
// key is the zero key.
func TestAffinityKeysNameEqualMasks(t *testing.T) {
	masks := []Mask{{}, MaskOf(1, 3), MaskOf(1, 3), MaskOf(2),
		MaskRange(60, 200), MaskRange(60, 200), MaskRange(60, 201), SingleWorker(4096)}
	var a Arena
	refs := make([]Ref, len(masks))
	for i, m := range masks {
		refs[i] = a.WithAffinityMask(a.Seq(), m)
	}
	tr := a.tree()
	if tr.AffinityKey(refs[0]) != (AffinityKey{}) {
		t.Fatal("unrestricted node has a non-zero affinity key")
	}
	for i, ri := range refs {
		for j, rj := range refs {
			if tr.AffinityKey(ri) == tr.AffinityKey(rj) && !masks[i].Equal(masks[j]) {
				t.Errorf("masks %v and %v share an affinity key", masks[i], masks[j])
			}
		}
	}
}

// Interning compares demands and annotations by bit pattern: −0 is not
// the +0 interned just before it, a NaN keeps its payload and shares
// one entry with an equal NaN, and Import re-interns them the same way
// into a tree that already holds +0.
func TestInterningKeepsFloatBits(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff8000000000002)
	values := []float64{0, negZero, nan1, nan1, nan2, negZero}
	check := func(how string, tr *Tree, leaves []Ref) {
		t.Helper()
		for i, r := range leaves {
			want := math.Float64bits(values[i])
			d, regionBytes, _, _ := tr.LeafInputs(r)
			for name, got := range map[string]float64{
				"Demand.Flops": tr.Demand(r).Flops, "LeafInputs flops": d.Flops,
				"LeafInputs regionBytes": regionBytes, "AllocBytes": tr.AllocBytes(r),
			} {
				if math.Float64bits(got) != want {
					t.Errorf("%s, leaf %d: %s has bits %#x, want %#x", how, i, name, math.Float64bits(got), want)
				}
			}
		}
		// +0, −0 and the two NaNs; the zero annotation is +0's.
		if len(tr.demands) != 4 || len(tr.anns) != 4 {
			t.Errorf("%s: %d demands and %d annotations interned, want 4 and 4", how, len(tr.demands), len(tr.anns))
		}
	}
	var a Arena
	leaves := make([]Ref, len(values))
	for i, v := range values {
		leaves[i] = a.WithAlloc(a.Leaf(Work{Flops: v, RegionBytes: v}), v)
	}
	check("Arena.Leaf", a.t, leaves)

	var b Arena
	b.Leaf(Work{})
	root := b.Import(a.Node(a.Seq(leaves...)))
	imported := make([]Ref, len(values))
	for i := range imported {
		imported[i] = b.t.Child(root, i)
	}
	check("Import", b.t, imported)
}

// Child lists hold indices: a subtree under several parents is stored
// once, and so is an imported subtree whose Ref is reused.
func TestSharedSubtreesStayShared(t *testing.T) {
	var a Arena
	shared := a.Seq(a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2}))
	root := a.Node(a.Par(shared, shared, shared))
	if got := a.t.nodes.n; got != 4 {
		t.Fatalf("three uses of one subtree stored %d nodes", got)
	}
	if s := Collect(root); s.Leaves != 6 || s.Flops != 9 {
		t.Fatalf("shared subtree collects %d leaves, %v flops", s.Leaves, s.Flops)
	}
	var o Arena
	other := o.Node(o.Seq(o.Leaf(Work{Flops: 3})))
	var b Arena
	x := b.Import(other)
	imported := b.Node(b.Par(x, x))
	if b.t.nodes.n != 3 || shape(imported) != "P(S(3) S(3))" {
		t.Fatalf("imported subtree used twice: %d nodes, shape %s", b.t.nodes.n, shape(imported))
	}
	if b.Import(b.Node(x)) != x {
		t.Fatal("importing the arena's own node moved it")
	}
}

// Records cross block boundaries: child lists may straddle blocks,
// region lists never do, and the first block grows from small.
func TestRecordsSpanBlocks(t *testing.T) {
	var a Arena
	const n = 3*blockLen + 7
	leaves := make([]Ref, n)
	for i := range leaves {
		leaves[i] = a.Leaf(Work{Flops: float64(i), Reads: []RegionID{RegionID(i), 1}, Writes: []RegionID{RegionID(i + 1)}})
	}
	if c := cap(a.t.leaves.b[0]); c != blockLen {
		t.Fatalf("first leaf block grew to %d, want %d", c, blockLen)
	}
	root := a.Node(a.Seq(leaves...))
	tr := root.Tree()
	if tr.NumChildren(root.Ref()) != n {
		t.Fatalf("%d children", tr.NumChildren(root.Ref()))
	}
	for i := 0; i < n; i++ {
		c := tr.Child(root.Ref(), i)
		reads, writes := tr.ReadsWrites(c)
		if tr.Demand(c).Flops != float64(i) || reads[0] != RegionID(i) || reads[1] != 1 || writes[0] != RegionID(i+1) {
			t.Fatalf("child %d: flops %v reads %v writes %v", i, tr.Demand(c).Flops, reads, writes)
		}
	}
	var small Arena
	small.Leaf(Work{})
	if c := cap(small.t.nodes.b[0]); c != firstBlock {
		t.Fatalf("a one-leaf arena allocated %d node records", c)
	}
}

// The layout budget: a node record and a leaf record fit 16 bytes
// each, and no record, child-list, region-list or interned-table array
// holds a pointer, so the GC never scans a tree's bulk.
func TestRecordLayoutBudget(t *testing.T) {
	if s := unsafe.Sizeof(nodeRec{}); s > 16 {
		t.Errorf("node record is %d bytes, budget 16", s)
	}
	if s := unsafe.Sizeof(leafRec{}); s > 16 {
		t.Errorf("leaf record is %d bytes, budget 16", s)
	}
	tree := reflect.TypeOf(Tree{})
	for _, name := range []string{"nodes", "leaves", "kids", "ids", "anns", "demands"} {
		f, ok := tree.FieldByName(name)
		if !ok {
			t.Fatalf("Tree has no %s array", name)
		}
		elem := f.Type // a blocks list or a table slice
		if elem.Kind() == reflect.Struct {
			b, _ := elem.FieldByName("b")
			elem = b.Type.Elem()
		}
		elem = elem.Elem()
		if hasPointers(elem) {
			t.Errorf("Tree.%s elements (%v) hold pointers", name, elem)
		}
	}
}

func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Func, reflect.Chan:
		return true
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}

// Release hands on every block, and the emptied tree shares no memory
// with the storage it handed on. A one-block array's header lives in
// the Tree itself (blocks.b0), so the storage must hold its own copy.
func TestReleasedStorageOutlivesTree(t *testing.T) {
	for _, leaves := range []int{1, 2*blockLen + 3} {
		var a Arena
		kids := make([]Ref, leaves)
		for i := range kids {
			kids[i] = a.Leaf(Work{Flops: float64(i), Reads: []RegionID{a.New()}})
		}
		a.Seq(kids...)
		tr := a.t
		nodeBlocks, idBlocks := len(tr.nodes.b), len(tr.ids.b)
		st := tr.release()
		if !reflect.ValueOf(*tr).IsZero() {
			t.Fatalf("%d leaves: the released tree still holds storage", leaves)
		}
		lo := uintptr(unsafe.Pointer(tr))
		hi := lo + unsafe.Sizeof(*tr)
		for name, list := range map[string]unsafe.Pointer{
			"nodes":  unsafe.Pointer(unsafe.SliceData(st.nodes)),
			"leaves": unsafe.Pointer(unsafe.SliceData(st.leaves)),
			"kids":   unsafe.Pointer(unsafe.SliceData(st.kids)),
			"ids":    unsafe.Pointer(unsafe.SliceData(st.ids)),
		} {
			if p := uintptr(list); p >= lo && p < hi {
				t.Errorf("%d leaves: the storage's %s list lies inside the released Tree", leaves, name)
			}
		}
		if len(st.nodes) != nodeBlocks || len(st.ids) != idBlocks || st.nodes[0] == nil || st.ids[0] == nil {
			t.Fatalf("%d leaves: storage holds %d node and %d region blocks, want %d and %d",
				leaves, len(st.nodes), len(st.ids), nodeBlocks, idBlocks)
		}
		// The next tree refills the storage from index 0.
		b := Arena{t: new(Tree)}
		b.t.adopt(st)
		root := b.Node(b.Par(b.Leaf(Work{Flops: 5}), b.Leaf(Work{Flops: 6})))
		if s := Collect(root); s.Leaves != 2 || s.Flops != 11 || root.Ref() != 2 {
			t.Errorf("%d leaves: a tree on recycled storage collects %d leaves, %v flops, root %d",
				leaves, s.Leaves, s.Flops, root.Ref())
		}
	}
}

// A tree whose storage exceeds maxPooledBytes is emptied all the same,
// but pools nothing: its storage goes to the collector.
func TestLargeTreeStorageIsNotPooled(t *testing.T) {
	var a Arena
	// A node and a leaf record per leaf fill the bound; the root's node
	// and child list take the tree past it.
	kids := make([]Ref, maxPooledBytes/(unsafe.Sizeof(nodeRec{})+unsafe.Sizeof(leafRec{})))
	for i := range kids {
		kids[i] = a.Leaf(Work{Flops: 1})
	}
	a.Seq(kids...)
	tr := a.t
	if st := tr.release(); st != nil {
		t.Errorf("storage of %d leaves was pooled", len(kids))
	}
	if !reflect.ValueOf(*tr).IsZero() {
		t.Error("the released tree still holds storage")
	}
}

// After Release every read through a handle on the tree panics: the
// tree holds no record, rather than another tree's.
func TestReleasedTreePanics(t *testing.T) {
	// sync.Pool drops what it holds over two collections, so the
	// storage released here reaches no later test's Arena.
	t.Cleanup(func() { runtime.GC(); runtime.GC() })
	var a Arena
	leaf := a.Leaf(Work{Flops: 1, Reads: []RegionID{a.New()}})
	root := a.Node(a.Seq(leaf))
	tr := root.Tree()
	tr.Release()
	reads := map[string]func(){
		"IsLeaf":      func() { tr.IsLeaf(root.Ref()) },
		"Child":       func() { tr.Child(root.Ref(), 0) },
		"Demand":      func() { tr.Demand(leaf) },
		"ReadsWrites": func() { tr.ReadsWrites(leaf) },
		"Collect":     func() { Collect(root) },
	}
	for name, read := range reads {
		if !panics(read) {
			t.Errorf("%s read a released tree", name)
		}
	}
	if !reflect.ValueOf(*tr).IsZero() {
		t.Error("a released tree still holds storage")
	}
}

// A Ref at or past an array's fill panics, on fresh storage and on
// storage a released tree handed on: blocks are full length, so
// without the fill check a bad Ref would read a zero record, or a
// stale one from the earlier tree.
func TestRefPastFillPanics(t *testing.T) {
	var old Arena
	kids := make([]Ref, 100)
	for i := range kids {
		kids[i] = old.Leaf(Work{Flops: 7})
	}
	old.Seq(kids...)
	recycled := Arena{t: new(Tree)}
	recycled.t.adopt(old.t.release())
	var fresh Arena
	for name, a := range map[string]*Arena{"fresh": &fresh, "recycled": &recycled} {
		root := a.Node(a.Seq(a.Leaf(Work{Flops: 1})))
		tr := root.Tree()
		if got := tr.Demand(tr.Child(root.Ref(), 0)).Flops; got != 1 {
			t.Errorf("%s storage: leaf reads %v flops, want 1", name, got)
		}
		for _, r := range []Ref{2, 50, -1} {
			if !panics(func() { tr.IsLeaf(r) }) {
				t.Errorf("%s storage: Ref %d of a 2-node tree was read", name, r)
			}
		}
	}
}
