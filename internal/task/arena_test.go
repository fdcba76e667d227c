package task

import (
	"reflect"
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestArenaBuildsLikePackageConstructors(t *testing.T) {
	var a Arena
	kids := []Ref{a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2})}
	par := a.Par(kids...)
	kids[0] = -1 // the arena copied the list; the caller may reuse it
	root := a.Node(a.Seq(par, a.Seq()))
	want := Seq(Par(Leaf(Work{Flops: 1}), Leaf(Work{Flops: 2})), Seq())
	if shape(root) != shape(want) || shape(root) != "S(P(1 2) S())" {
		t.Fatalf("arena tree %s, package constructors %s", shape(root), shape(want))
	}
	if s := Collect(root); s.Leaves != 2 || s.Flops != 3 {
		t.Fatalf("arena tree collects %d leaves, %v flops", s.Leaves, s.Flops)
	}
}

// shape renders a tree's structure and leaf flops.
func shape(n *Node) string {
	if n.IsLeaf() {
		return string(rune('0' + int(n.Work().Flops)))
	}
	s := "P("
	if n.IsSeq() {
		s = "S("
	}
	for i, c := range n.Children() {
		if i > 0 {
			s += " "
		}
		s += shape(c)
	}
	return s + ")"
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
	if writes[0] != 3 || next.Work().Reads[0] != 4 {
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
	if got := l.Work().Label; got != "c11 n32" || len(a.t.labels) != 4 {
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
		"Import":           func(a *Arena) { a.Import(Leaf(Work{})) },
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
	other := Seq(Leaf(Work{Flops: 3}))
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

// The layout budget: a node record fits 32 bytes and a leaf record 48,
// and no record, child-list or region-list array holds a pointer, so
// the GC never scans a tree's bulk.
func TestRecordLayoutBudget(t *testing.T) {
	if s := unsafe.Sizeof(nodeRec{}); s > 32 {
		t.Errorf("node record is %d bytes, budget 32", s)
	}
	if s := unsafe.Sizeof(leafRec{}); s > 48 {
		t.Errorf("leaf record is %d bytes, budget 48", s)
	}
	tree := reflect.TypeOf(Tree{})
	for _, name := range []string{"nodes", "leaves", "kids", "ids"} {
		f, ok := tree.FieldByName(name)
		if !ok {
			t.Fatalf("Tree has no %s array", name)
		}
		b, _ := f.Type.FieldByName("b")
		if elem := b.Type.Elem().Elem(); hasPointers(elem) {
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
