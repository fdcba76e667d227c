package task

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

func TestArenaBuildsLikePackageConstructors(t *testing.T) {
	var a Arena
	kids := []*Node{a.Leaf(Work{Flops: 1}), a.Leaf(Work{Flops: 2})}
	par := a.Par(kids...)
	kids[0] = nil // the arena copied the list; the caller may reuse it
	root := a.Seq(par, a.Seq())
	if !root.IsSeq() || !par.IsPar() || len(root.Children()) != 2 || len(root.Children()[1].Children()) != 0 {
		t.Fatal("arena tree has the wrong shape")
	}
	if s := Collect(root); s.Leaves != 2 || s.Flops != 3 {
		t.Fatalf("arena tree collects %d leaves, %v flops", s.Leaves, s.Flops)
	}
	if par.Children()[0] == nil {
		t.Fatal("Par kept the caller's child slice")
	}
}

func TestArenaReadsWritesAreClipped(t *testing.T) {
	var a Arena
	reads, writes := a.ReadsWrites([]RegionID{1, 2}, 3)
	next, _ := a.ReadsWrites([]RegionID{4})
	if len(reads) != 2 || len(writes) != 1 || reads[1] != 2 || writes[0] != 3 {
		t.Fatalf("reads %v writes %v", reads, writes)
	}
	_ = append(reads, 99)
	_ = append(writes, 99)
	if writes[0] != 3 || next[0] != 4 {
		t.Fatal("appending to one region list overwrote its neighbour")
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
}

// The arena shares the Regions overlap detector: every allocation
// panics while another build call is inside, as Regions.New does.
func TestArenaGuardPanicsOnOverlappingUse(t *testing.T) {
	calls := map[string]func(a *Arena){
		"New":         func(a *Arena) { a.New() },
		"Leaf":        func(a *Arena) { a.Leaf(Work{}) },
		"Seq":         func(a *Arena) { a.Seq() },
		"Par":         func(a *Arena) { a.Par() },
		"ReadsWrites": func(a *Arena) { a.ReadsWrites(nil, 1) },
		"Label":       func(a *Arena) { a.Label("x%d", 1) },
	}
	for name, call := range calls {
		t.Run(name, func(t *testing.T) {
			var a Arena
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
