package sched

import (
	"math"
	"math/rand"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
)

// treeGen builds random task trees through an Arena. Every leaf applies
// x ← mul·x + add, which does not commute with another leaf's update,
// to a span of the shared slice x. Seq children may touch their whole
// range in order; Par children split it into disjoint parts, so every
// schedule that respects the tree computes the same bits.
type treeGen struct {
	rng     *rand.Rand
	a       *task.Arena
	x       []float64
	workers int
}

// subtree returns a random subtree whose leaves update only x[lo:hi].
func (g *treeGen) subtree(lo, hi, depth int) task.Ref {
	var r task.Ref
	switch n := 1 + g.rng.Intn(4); {
	case depth == 0 || g.rng.Intn(4) == 0:
		r = g.leaf(lo, hi)
	case g.rng.Intn(2) == 0:
		kids := make([]task.Ref, n)
		for i := range kids {
			kids[i] = g.subtree(lo, hi, depth-1)
		}
		r = g.a.Seq(kids...)
	default:
		n = min(n, hi-lo)
		kids := make([]task.Ref, n)
		for i := range kids {
			kids[i] = g.subtree(lo+(hi-lo)*i/n, lo+(hi-lo)*(i+1)/n, depth-1)
		}
		r = g.a.Par(kids...)
	}
	switch g.rng.Intn(4) {
	case 0:
		r = g.a.WithAffinityMask(r, task.SingleWorker(g.rng.Intn(g.workers)))
	case 1:
		w := g.rng.Intn(g.workers)
		r = g.a.WithAffinityMask(r, task.MaskRange(w, w+g.rng.Intn(g.workers-w)))
	}
	if g.rng.Intn(4) == 0 {
		r = g.a.WithAlloc(r, float64(1+g.rng.Intn(1<<20)))
	}
	return r
}

// leaf returns a leaf updating a random non-empty span of x[lo:hi].
func (g *treeGen) leaf(lo, hi int) task.Ref {
	i := lo + g.rng.Intn(hi-lo)
	j := i + 1 + g.rng.Intn(hi-i)
	mul, add := 0.5+g.rng.Float64(), g.rng.Float64()-0.5
	x := g.x
	return g.a.Leaf(task.Work{Kind: task.KindAdd, Flops: float64(1 + g.rng.Intn(1e6)), Run: func() {
		for k := i; k < j; k++ {
			x[k] = x[k]*mul + add
		}
	}})
}

// randomTree returns a tree over x: a shared subtree under two Seq
// parents, a subtree built in a second arena and imported, and the
// random body between them.
func randomTree(seed int64, x []float64, workers int) *task.Node {
	var a, b task.Arena
	g := &treeGen{rng: rand.New(rand.NewSource(seed)), a: &a, x: x, workers: workers}
	shared := g.subtree(0, len(x), 2)
	body := g.subtree(0, len(x), 5)
	other := &treeGen{rng: g.rng, a: &b, x: x, workers: workers}
	imported := a.Import(b.Node(other.subtree(0, len(x), 3)))
	return a.Node(a.Seq(a.Seq(shared, body), imported, a.Seq(g.subtree(0, len(x), 2), shared)))
}

// The engines over random trees: sched on 4 workers, task.RunSerial and
// sim with VerifyNumerics run each tree's arithmetic, and all three
// must produce the same bits.
func TestRandomTreesAgreeAcrossEngines(t *testing.T) {
	const workers, size = 4, 64
	m := hw.HaswellE31225()
	p := New(workers)
	defer p.Close()
	seeds := 100
	if testing.Short() {
		seeds = 25
	}
	init := make([]float64, size)
	for i := range init {
		init[i] = float64(i) / size
	}
	x := make([]float64, size)
	for seed := int64(1); seed <= int64(seeds); seed++ {
		root := randomTree(seed, x, workers)
		run := func(engine func()) []float64 {
			copy(x, init)
			engine()
			return append([]float64(nil), x...)
		}
		serial := run(func() { task.RunSerial(root) })
		outputs := map[string][]float64{
			"sched": run(func() { p.Run(root) }),
			"sim":   run(func() { sim.Run(m, root, sim.Config{Workers: workers, VerifyNumerics: true}) }),
		}
		for engine, got := range outputs {
			for k := range serial {
				if math.Float64bits(got[k]) != math.Float64bits(serial[k]) {
					t.Fatalf("seed %d: %s x[%d] = %v, serial %v", seed, engine, k, got[k], serial[k])
				}
			}
		}
	}
}
