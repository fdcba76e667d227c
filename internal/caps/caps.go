// Package caps implements Communication Avoiding Parallel Strassen
// (Ballard, Demmel, Holtz, Lipshitz, Schwartz), the paper's third
// multiplier and its main subject.
//
// CAPS traverses the Strassen recursion tree choosing, per level,
// between a breadth-first step (BFS: the seven subproblems execute on
// disjoint worker subsets, which costs extra buffer memory for staged
// operands but keeps each subproblem's data local to its owners) and a
// depth-first step (DFS: all workers of the subtree compute the seven
// subproblems one after another with work-shared additions, which needs
// no extra memory but re-shares every operand). Following the paper's
// Algorithm 2 and its empirical tuning, the traversal runs BFS above a
// cutoff depth (default 4) and DFS below it.
//
// Ownership: the 7^L subtrees at the cutoff depth are block-partitioned
// across the workers in index order, and every interior node owns the
// union of its descendants' workers. Staging copies and operand
// additions are pinned to the consuming subtree's owners, which is the
// "communication avoiding" mechanism — the simulator charges remote
// traffic only at subtree boundaries instead of wherever work stealing
// happened to scatter tasks.
package caps

import (
	"fmt"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// DefaultCutoffDepth is the BFS→DFS switch level the paper found best
// after empirical testing.
const DefaultCutoffDepth = 4

// Options configures tree construction.
type Options struct {
	// Cutover is the dense base-case dimension; 0 means
	// strassen.DefaultCutover (64), as the paper uses one cutover for
	// all three recursive codes.
	Cutover int
	// CutoffDepth is the recursion depth at which traversal switches
	// from BFS to DFS. 0 means DefaultCutoffDepth; negative means pure
	// DFS (no BFS levels), which is the ablation baseline.
	CutoffDepth int
	// WithMath attaches real arithmetic and allocates buffers.
	WithMath bool
}

func (o Options) cutover() int {
	if o.Cutover <= 0 {
		return strassen.DefaultCutover
	}
	return o.Cutover
}

func (o Options) cutoffDepth() int {
	if o.CutoffDepth == 0 {
		return DefaultCutoffDepth
	}
	if o.CutoffDepth < 0 {
		return 0
	}
	return o.CutoffDepth
}

type operand struct {
	mat    *matrix.Dense
	region task.RegionID
	n      int
}

func (o operand) quad(i, j int) operand {
	half := o.n / 2
	q := operand{region: o.region, n: half}
	if o.mat != nil {
		q.mat = o.mat.View(i*half, j*half, half, half)
	}
	return q
}

type builder struct {
	m       *hw.Machine
	opt     Options
	workers int
	// arena holds the tree's records, labels and region IDs for this
	// one build.
	arena task.Arena
	// bfsLevels is the effective number of BFS levels for this problem
	// (cutoff depth clipped to the actual recursion depth).
	bfsLevels int
	// leavesAtCutoff is 7^bfsLevels, the number of ownership units.
	leavesAtCutoff int
}

// Build returns the task tree computing c = a·b by CAPS. workers is the
// thread count the run will use; the BFS ownership partition is built
// for exactly that many workers.
func Build(m *hw.Machine, c, a, b *matrix.Dense, workers int, opt Options) *task.Node {
	n := a.Rows()
	if !a.IsSquare() || !b.IsSquare() || !c.IsSquare() || b.Rows() != n || c.Rows() != n {
		panic(fmt.Sprintf("caps: need equal square matrices, got %dx%d %dx%d %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	if workers < 1 {
		panic(fmt.Sprintf("caps: workers %d", workers))
	}
	bd := &builder{m: m, opt: opt, workers: workers}

	// Awkward sizes pad once to c·2^k ≤-cutover form, as the Strassen
	// builder does (see strassen.PaddedSize).
	padded := strassen.PaddedSize(n, opt.cutover())

	// Clip BFS to the recursion's actual depth.
	maxDepth := 0
	for v := padded; v > opt.cutover() && v%2 == 0; v /= 2 {
		maxDepth++
	}
	bd.bfsLevels = opt.cutoffDepth()
	if bd.bfsLevels > maxDepth {
		bd.bfsLevels = maxDepth
	}
	bd.leavesAtCutoff = 1
	for i := 0; i < bd.bfsLevels; i++ {
		bd.leavesAtCutoff *= 7
	}

	if padded != n {
		return bd.arena.Node(bd.paddedMul(c, a, b, n, padded))
	}
	ca := operand{region: bd.arena.New(), n: n}
	cb := operand{region: bd.arena.New(), n: n}
	cc := operand{region: bd.arena.New(), n: n}
	if opt.WithMath {
		ca.mat, cb.mat, cc.mat = a, b, c
	}
	return bd.arena.Node(bd.mul(cc, ca, cb, 0, 0))
}

// paddedMul wraps the recursion in pad-in/pad-out stages for sizes
// that do not halve evenly to the cutover.
func (bd *builder) paddedMul(c, a, b *matrix.Dense, n, padded int) task.Ref {
	var pa, pb, pc *matrix.Dense
	if bd.opt.WithMath {
		pa = matrix.PadTo(a, padded, padded)
		pb = matrix.PadTo(b, padded, padded)
		pc = matrix.New(padded, padded)
	}
	ca := operand{mat: pa, region: bd.arena.New(), n: padded}
	cb := operand{mat: pb, region: bd.arena.New(), n: padded}
	cc := operand{mat: pc, region: bd.arena.New(), n: padded}

	mkCopy := func(label string, read, write task.RegionID, run func()) task.Ref {
		reads, writes := bd.arena.ReadsWrites([]task.RegionID{read}, write)
		return bd.arena.Leaf(task.Work{
			Label:       label,
			Kind:        task.KindCopy,
			DRAMBytes:   2 * kernel.Bytes(n, n),
			Reads:       reads,
			Writes:      writes,
			RegionBytes: kernel.Bytes(n, n),
			Run:         run,
		})
	}
	srcA, srcB, dstC := bd.arena.New(), bd.arena.New(), bd.arena.New()
	// Padding happened at build time when math is on, so the pad-in
	// leaves only carry the traffic accounting.
	padIn := bd.arena.Par(
		mkCopy(bd.arena.Label("pad A %d->%d", n, padded), srcA, ca.region, nil),
		mkCopy(bd.arena.Label("pad B %d->%d", n, padded), srcB, cb.region, nil),
	)
	var unpad func()
	if bd.opt.WithMath {
		unpad = func() { matrix.CopyTo(c, pc.View(0, 0, n, n)) }
	}
	padOut := mkCopy(bd.arena.Label("unpad C %d->%d", padded, n), cc.region, dstC, unpad)
	alloc := 3 * kernel.Bytes(padded, padded)
	return bd.arena.WithAlloc(bd.arena.Seq(padIn, bd.mul(cc, ca, cb, 0, 0), padOut), alloc)
}

// ownerMask returns the worker mask owning the subtree at (depth, idx):
// the block partition of the 7^bfsLevels cutoff units over the workers.
// Nodes below the cutoff depth inherit their cutoff-level ancestor's
// single unit.
func (bd *builder) ownerMask(depth, idx int) task.Mask {
	if bd.bfsLevels == 0 {
		return task.Mask{} // pure DFS: unrestricted
	}
	var lo, hi int
	if depth >= bd.bfsLevels {
		for d := depth; d > bd.bfsLevels; d-- {
			idx /= 7
		}
		lo, hi = idx, idx
	} else {
		span := bd.leavesAtCutoff
		for i := 0; i < depth; i++ {
			span /= 7
		}
		lo = idx * span
		hi = lo + span - 1
	}
	wLo := lo * bd.workers / bd.leavesAtCutoff
	wHi := hi * bd.workers / bd.leavesAtCutoff
	return task.MaskRange(wLo, wHi)
}

func ownersOf(mask task.Mask, workers int) int {
	if mask.IsEmpty() {
		return workers
	}
	return mask.Count()
}

// mul builds the subtree for c = a·b at the given recursion position.
func (bd *builder) mul(c, a, b operand, depth, idx int) task.Ref {
	n := a.n
	mask := bd.ownerMask(depth, idx)
	if n <= bd.opt.cutover() || n%2 != 0 {
		return bd.baseMul(c, a, b, mask)
	}
	if depth < bd.bfsLevels {
		return bd.bfsNode(c, a, b, depth, idx)
	}
	return bd.dfsNode(c, a, b, depth, idx)
}

func (bd *builder) temp(n int) operand {
	t := operand{region: bd.arena.New(), n: n}
	if bd.opt.WithMath {
		t.mat = matrix.New(n, n)
	}
	return t
}

// baseMul emits the dense solver. When the owning mask spans several
// workers (pure-DFS configurations), the solver's row loop is
// work-shared across them, as the paper's OpenMP work-sharing DFS does.
// The row chunks share one region list: leaves never mutate theirs.
func (bd *builder) baseMul(c, a, b operand, mask task.Mask) task.Ref {
	n := a.n
	owners := min(ownersOf(mask, bd.workers), n)
	reads, writes := bd.arena.ReadsWrites([]task.RegionID{a.region, b.region}, c.region)
	mk := func(rowLo, rowHi int) task.Ref {
		rows := rowHi - rowLo
		traffic := kernel.Bytes(rows, n) + kernel.Bytes(n, n) + 2*kernel.Bytes(rows, n)
		w := task.Work{
			Label:       bd.arena.Label("basemul n%d r%d", n, rowLo),
			Kind:        task.KindBaseMul,
			Flops:       kernel.MulFlops(rows, n, n),
			Reads:       reads,
			Writes:      writes,
			RegionBytes: kernel.Bytes(n, n),
		}
		if bd.m.LevelFor(traffic, bd.workers) == hw.LevelDRAM {
			w.DRAMBytes = traffic
		} else {
			w.L3Bytes = traffic
		}
		if bd.opt.WithMath {
			cm := c.mat.View(rowLo, 0, rows, n)
			am := a.mat.View(rowLo, 0, rows, n)
			bm := b.mat
			w.Run = func() { kernel.Mul(cm, am, bm) }
		}
		return bd.arena.Leaf(w)
	}
	if owners <= 1 {
		return bd.arena.WithAffinityMask(mk(0, n), mask)
	}
	chunks := make([]task.Ref, 0, owners)
	for t := 0; t < owners; t++ {
		lo := n * t / owners
		hi := n * (t + 1) / owners
		if hi > lo {
			chunks = append(chunks, mk(lo, hi))
		}
	}
	return bd.arena.WithAffinityMask(bd.arena.Par(chunks...), mask)
}

// addLeaf emits dst = a combination of srcs (len(srcs)−1 additions per
// element), pinned to mask, work-shared into chunks when the mask spans
// several workers. It attaches run, built only when the build has math;
// the chunks share one region list.
func (bd *builder) addLeaf(label string, dst operand, mask task.Mask, run func(), srcs ...operand) task.Ref {
	n := dst.n
	owners := ownersOf(mask, bd.workers)
	bytes := kernel.Bytes(n, n)
	traffic := float64(len(srcs)+1) * bytes
	var ids [4]task.RegionID
	for i, s := range srcs {
		ids[i] = s.region
	}
	reads, writes := bd.arena.ReadsWrites(ids[:len(srcs)], dst.region)
	mkWork := func(frac float64) task.Work {
		w := task.Work{
			Label:       label,
			Kind:        task.KindAdd,
			Flops:       float64(len(srcs)-1) * float64(n) * float64(n) * frac,
			Reads:       reads,
			Writes:      writes,
			RegionBytes: bytes * frac,
		}
		if bd.m.LevelFor(traffic, bd.workers) == hw.LevelDRAM {
			w.DRAMBytes = traffic * frac
		} else {
			w.L3Bytes = traffic * frac
		}
		return w
	}
	if owners <= 1 {
		w := mkWork(1)
		w.Run = run
		return bd.arena.WithAffinityMask(bd.arena.Leaf(w), mask)
	}
	// Work-shared: owners chunks; the real math (when on) runs whole in
	// the first chunk — numerically identical, and the accounting stays
	// split.
	chunks := make([]task.Ref, owners)
	for t := 0; t < owners; t++ {
		w := mkWork(1 / float64(owners))
		if t == 0 {
			w.Run = run
		}
		chunks[t] = bd.arena.Leaf(w)
	}
	return bd.arena.WithAffinityMask(bd.arena.Par(chunks...), mask)
}

// copyLeaf stages src into a fresh local buffer owned by mask and
// returns the staged operand. This is the BFS redistribution cost: one
// read of src, one write of dst.
func (bd *builder) copyLeaf(label string, src operand, mask task.Mask) (operand, task.Ref) {
	dst := bd.temp(src.n)
	bytes := kernel.Bytes(src.n, src.n)
	traffic := 2 * bytes
	reads, writes := bd.arena.ReadsWrites([]task.RegionID{src.region}, dst.region)
	w := task.Work{
		Label:       label,
		Kind:        task.KindCopy,
		Reads:       reads,
		Writes:      writes,
		RegionBytes: bytes,
	}
	if bd.m.LevelFor(traffic, bd.workers) == hw.LevelDRAM {
		w.DRAMBytes = traffic
	} else {
		w.L3Bytes = traffic
	}
	if bd.opt.WithMath {
		d, s := dst.mat, src.mat
		w.Run = func() { kernel.Pack(d, s) }
	}
	return dst, bd.arena.WithAffinityMask(bd.arena.Leaf(w), mask)
}

// subproblem describes one of the seven Strassen products at a node.
type subproblem struct {
	// terms for the left and right factors: quadrant operands and the
	// sign applied to the second one (0 = single operand).
	lx, ly operand
	lsub   bool
	lone   bool
	rx, ry operand
	rsub   bool
	rone   bool
}

// buildSubproblems returns the seven classic subproblem descriptors
// (paper Eq. 7, with the printed Q5 typo corrected to (A11+A12)·B22).
func buildSubproblems(a, b operand) [7]subproblem {
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)
	return [7]subproblem{
		{lx: a11, ly: a22, rx: b11, ry: b22},                // Q1 = (A11+A22)(B11+B22)
		{lx: a21, ly: a22, rx: b11, rone: true},             // Q2 = (A21+A22)·B11
		{lx: a11, lone: true, rx: b12, ry: b22, rsub: true}, // Q3 = A11·(B12−B22)
		{lx: a22, lone: true, rx: b21, ry: b11, rsub: true}, // Q4 = A22·(B21−B11)
		{lx: a11, ly: a12, rx: b22, rone: true},             // Q5 = (A11+A12)·B22
		{lx: a21, ly: a11, lsub: true, rx: b11, ry: b12},    // Q6 = (A21−A11)(B11+B12)
		{lx: a12, ly: a22, lsub: true, rx: b21, ry: b22},    // Q7 = (A12−A22)(B21+B22)
	}
}

// factor materializes factor k of a subproblem for a consumer owned by
// mask: a sum/difference becomes an add into a local temp, labeled by
// addFmt; a single quadrant is staged by a copy labeled by stageFmt
// (BFS) or, with stageFmt empty, used in place (DFS) with no node.
func (bd *builder) factor(addFmt, stageFmt string, k int, lone bool, x, y operand, sub bool, mask task.Mask) (operand, task.Ref) {
	if lone {
		if stageFmt != "" {
			return bd.copyLeaf(bd.arena.Label(stageFmt, k, x.n), x, mask)
		}
		return x, none
	}
	dst := bd.temp(x.n)
	var run func()
	if bd.opt.WithMath {
		dm, xm, ym := dst.mat, x.mat, y.mat
		if sub {
			run = func() { matrix.SubTo(dm, xm, ym) }
		} else {
			run = func() { matrix.AddTo(dm, xm, ym) }
		}
	}
	return dst, bd.addLeaf(bd.arena.Label(addFmt, k, x.n), dst, mask, run, x, y)
}

// bfsNode: the seven subproblems run concurrently on their owner
// subsets; operand sums and staged copies are pinned to the consumer.
func (bd *builder) bfsNode(c, a, b operand, depth, idx int) task.Ref {
	half := a.n / 2
	sub := buildSubproblems(a, b)

	prep := make([]task.Ref, 0, 14)
	var recs, gather [7]task.Ref
	var gathered [7]operand
	mask := bd.ownerMask(depth, idx)
	for k := 0; k < 7; k++ {
		q := bd.temp(half)
		childMask := bd.ownerMask(depth+1, idx*7+k)
		l, lNode := bd.factor("bfs l%d n%d", "bfs l%d n%d stage", k, sub[k].lone, sub[k].lx, sub[k].ly, sub[k].lsub, childMask)
		r, rNode := bd.factor("bfs r%d n%d", "bfs r%d n%d stage", k, sub[k].rone, sub[k].rx, sub[k].ry, sub[k].rsub, childMask)
		prep = append(prep, present(lNode, rNode)...)
		recs[k] = bd.mul(q, l, r, depth+1, idx*7+k)
		// The inverse-BFS communication step: each product computed in a
		// child subset's buffers is gathered back for recombination.
		gathered[k], gather[k] = bd.copyLeaf(bd.arena.Label("bfs gather q%d n%d", k, half), q, mask)
	}

	post := bd.recombine(c, gathered, mask)

	// 7 products, their 7 gathered copies, and up to 14 staged/summed
	// factors live concurrently.
	alloc := 28 * kernel.Bytes(half, half)
	return bd.arena.WithAlloc(bd.arena.Seq(bd.arena.Par(prep...), bd.arena.Par(recs[:]...), bd.arena.Par(gather[:]...), post), alloc)
}

// dfsNode: all owners compute the seven subproblems in sequence with
// work-shared additions; quadrant factors are used in place (no staging
// memory).
func (bd *builder) dfsNode(c, a, b operand, depth, idx int) task.Ref {
	half := a.n / 2
	sub := buildSubproblems(a, b)
	mask := bd.ownerMask(depth, idx)
	var q [7]operand

	var steps [8]task.Ref
	for k := 0; k < 7; k++ {
		q[k] = bd.temp(half)
		l, lNode := bd.factor("dfs l%d n%d", "", k, sub[k].lone, sub[k].lx, sub[k].ly, sub[k].lsub, mask)
		r, rNode := bd.factor("dfs r%d n%d", "", k, sub[k].rone, sub[k].rx, sub[k].ry, sub[k].rsub, mask)
		mul := bd.mul(q[k], l, r, depth+1, idx*7+k)
		if pre := present(lNode, rNode); len(pre) > 0 {
			steps[k] = bd.arena.Seq(bd.arena.Par(pre...), mul)
		} else {
			steps[k] = bd.arena.Seq(mul)
		}
	}
	steps[7] = bd.recombine(c, q, mask)

	// Seven products plus two reusable factor temps at a time.
	alloc := 9 * kernel.Bytes(half, half)
	return bd.arena.WithAlloc(bd.arena.Seq(steps[:]...), alloc)
}

// none marks a factor that needs no node.
const none task.Ref = -1

// present compacts nodes in place, dropping the none entries.
func present(nodes ...task.Ref) []task.Ref {
	out := nodes[:0]
	for _, n := range nodes {
		if n != none {
			out = append(out, n)
		}
	}
	return out
}

// recombine emits the four C-quadrant recombination adds of Eq. 7.
func (bd *builder) recombine(c operand, q [7]operand, mask task.Mask) task.Ref {
	half := c.n / 2
	c11, c12, c21, c22 := c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1)
	mk := func(label string, dst operand, coeffs []float64, srcs ...operand) task.Ref {
		var run func()
		if bd.opt.WithMath {
			mats := make([]*matrix.Dense, len(srcs))
			for i, s := range srcs {
				mats[i] = s.mat
			}
			// The copy keeps the coefficient literals below off the heap
			// in shape-only builds.
			dm, cs := dst.mat, append([]float64(nil), coeffs...)
			run = func() { combine(dm, mats, cs) }
		}
		return bd.addLeaf(label, dst, mask, run, srcs...)
	}
	return bd.arena.Par(
		mk(bd.arena.Label("c11 n%d", half), c11, []float64{1, 1, -1, 1}, q[0], q[3], q[4], q[6]),
		mk(bd.arena.Label("c12 n%d", half), c12, []float64{1, 1}, q[2], q[4]),
		mk(bd.arena.Label("c21 n%d", half), c21, []float64{1, 1}, q[1], q[3]),
		mk(bd.arena.Label("c22 n%d", half), c22, []float64{1, -1, 1, 1}, q[0], q[1], q[2], q[5]),
	)
}

// combine stores Σ coeffs[i]·srcs[i] into dst.
func combine(dst *matrix.Dense, srcs []*matrix.Dense, coeffs []float64) {
	rows, cols := dst.Rows(), dst.Cols()
	for i := 0; i < rows; i++ {
		dr := dst.Row(i)
		for j := 0; j < cols; j++ {
			v := 0.0
			for k, s := range srcs {
				v += coeffs[k] * s.Row(i)[j]
			}
			dr[j] = v
		}
	}
}
