package sim

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"capscale/internal/blas"
	"capscale/internal/caps"
	"capscale/internal/matrix"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// The greedy-scheduler bounds (Graham): with affinity and contention
// off, every leaf costs its uncontended time wherever it runs, so any
// greedy schedule on p workers has a makespan T with
//
//	max(W/p, S) ≤ T ≤ W/p + S,
//
// where W is the tree's serial time (hw.SerialTime) and S its critical
// path (hw.CriticalPath). The oracle checks the event loop against the
// tree alone, independently of the seed scheduler, on random trees and
// on shape-only OpenBLAS, Strassen and CAPS trees.
func TestMakespanWithinGreedyBounds(t *testing.T) {
	m := machine()
	cases, strict := 0, 0
	check := func(label string, root *task.Node, p int) {
		res := Run(m, root, Config{Workers: p, DisableAffinity: true, DisableContention: true})
		w, s := m.SerialTime(root), m.CriticalPath(root)
		lo, hi := math.Max(w/float64(p), s), w/float64(p)+s
		tol := 1e-9 * hi
		if res.Makespan < lo-tol || res.Makespan > hi+tol {
			t.Errorf("%s on %d workers: makespan %v outside [%v, %v]", label, p, res.Makespan, lo, hi)
		}
		cases++
		if res.Makespan > lo+tol {
			strict++
		}
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 300; i++ {
		root := randomSimTree(rng, 4)
		for p := 1; p <= 4; p++ {
			check(fmt.Sprintf("random tree %d", i), root, p)
		}
	}
	for _, n := range []int{128, 256, 512, 1024} {
		a, b, c := matrix.Shape(n, n), matrix.Shape(n, n), matrix.Shape(n, n)
		for p := 1; p <= 4; p++ {
			check(fmt.Sprintf("OpenBLAS n=%d", n), blas.Build(m, c, a, b, blas.Options{Workers: p}), p)
			check(fmt.Sprintf("Strassen n=%d", n), strassen.Build(m, c, a, b, p, strassen.Options{}), p)
			check(fmt.Sprintf("CAPS n=%d", n), caps.Build(m, c, a, b, p, caps.Options{}), p)
		}
	}
	// Some schedules must sit strictly inside the bounds, or the lower
	// bound alone would be doing the checking.
	if strict == 0 {
		t.Fatalf("all %d makespans equal their lower bound", cases)
	}
	t.Logf("%d cases, %d strictly above the lower bound", cases, strict)
}
