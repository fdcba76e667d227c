// Package strassen implements the parallel Strassen multiplier the
// paper benchmarks: the classic seven-product recursion of its Eq. 7,
// expressed as task-per-subproblem fork-join parallelism in the style
// of the Barcelona OpenMP Tasks Suite (BOTS), with a dense base-case
// solver below a cutover dimension (the paper found N ≤ 64 optimal and
// used it everywhere; that is the default here).
//
// A Strassen-Winograd variant (15 additions per level instead of 18) is
// provided as the extension the paper's title for the algorithm
// suggests.
//
// Note: the paper's printed Q5 reads (A11 + B12)·B22, which mixes
// operands of A and B; the standard — and only shape-consistent — term
// is (A11 + A12)·B22, which is what this package implements.
package strassen

import (
	"fmt"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/task"
)

// DefaultCutover is the base-case dimension the paper settled on after
// empirical testing.
const DefaultCutover = 64

// Options configures tree construction.
type Options struct {
	// Cutover is the sub-matrix dimension at which recursion reverts to
	// the dense solver; 0 means DefaultCutover.
	Cutover int
	// TaskDepth limits how many recursion levels spawn parallel tasks;
	// deeper levels run sequentially inside their task. 0 means
	// unlimited (a task per subproblem at every level, as BOTS does).
	TaskDepth int
	// Winograd selects the 15-addition Strassen-Winograd recombination
	// instead of the paper's classic 18-addition form.
	Winograd bool
	// WithMath attaches real arithmetic to the leaves and allocates the
	// recursion temporaries. Only use for modest sizes: the temporaries
	// of the whole recursion are allocated up front.
	WithMath bool
}

func (o Options) cutover() int {
	if o.Cutover <= 0 {
		return DefaultCutover
	}
	return o.Cutover
}

// operand is one matrix argument threaded through the recursion: the
// affinity region it lives in and, when real math is on, its data.
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
}

// Build returns the task tree computing c = a·b by parallel Strassen.
// All three matrices must be square with identical dimension. workers
// is the thread count the run will use; it informs the traffic model's
// cache-share estimates.
func Build(m *hw.Machine, c, a, b *matrix.Dense, workers int, opt Options) *task.Node {
	n := a.Rows()
	if !a.IsSquare() || !b.IsSquare() || !c.IsSquare() || b.Rows() != n || c.Rows() != n {
		panic(fmt.Sprintf("strassen: need equal square matrices, got %dx%d %dx%d %dx%d",
			a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	if workers < 1 {
		panic(fmt.Sprintf("strassen: workers %d", workers))
	}
	bd := &builder{m: m, opt: opt, workers: workers}

	// Sizes that do not halve evenly down to the cutover are padded
	// once, up front, to the nearest c·2^k with c ≤ cutover — at most
	// a few percent of extra work for awkward n, instead of collapsing
	// to one dense n³ solve.
	var root task.Ref
	if padded := PaddedSize(n, opt.cutover()); padded != n {
		root = bd.paddedMul(c, a, b, n, padded)
	} else {
		ca := operand{region: bd.arena.New(), n: n}
		cb := operand{region: bd.arena.New(), n: n}
		cc := operand{region: bd.arena.New(), n: n}
		if opt.WithMath {
			ca.mat, cb.mat, cc.mat = a, b, c
		}
		root = bd.mul(cc, ca, cb, 0)
	}
	return bd.arena.Node(root)
}

// PaddedSize returns the smallest m ≥ n of the form c·2^k with
// c ≤ cutover, so that recursion halves evenly all the way to the
// dense base case. Sizes already ≤ cutover return unchanged.
func PaddedSize(n, cutover int) int {
	if cutover <= 0 {
		cutover = DefaultCutover
	}
	if n <= cutover {
		return n
	}
	k := 0
	for (n+(1<<k)-1)>>k > cutover {
		k++
	}
	return ((n + (1 << k) - 1) >> k) << k
}

// paddedMul wraps the recursion in pad-in/pad-out stages.
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

	srcA := bd.arena.New()
	srcB := bd.arena.New()
	dstC := bd.arena.New()
	// Padding happened at build time when math is on, so the pad-in
	// leaves only carry the traffic accounting.
	padIn := bd.arena.Par(
		bd.copyLeaf(bd.arena.Label("pad A %d->%d", n, padded), n, srcA, ca.region, nil),
		bd.copyLeaf(bd.arena.Label("pad B %d->%d", n, padded), n, srcB, cb.region, nil),
	)
	var unpad func()
	if bd.opt.WithMath {
		unpad = func() { matrix.CopyTo(c, pc.View(0, 0, n, n)) }
	}
	padOut := bd.copyLeaf(bd.arena.Label("unpad C %d->%d", padded, n), n, cc.region, dstC, unpad)
	alloc := 3 * kernel.Bytes(padded, padded)
	return bd.arena.WithAlloc(bd.arena.Seq(padIn, bd.mul(cc, ca, cb, 0), padOut), alloc)
}

// copyLeaf is one n×n pad or unpad copy from region src to dst.
func (bd *builder) copyLeaf(label string, n int, src, dst task.RegionID, run func()) task.Ref {
	reads, writes := bd.arena.ReadsWrites([]task.RegionID{src}, dst)
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

// mul builds the subtree computing c = a·b for n×n operands.
func (bd *builder) mul(c, a, b operand, depth int) task.Ref {
	n := a.n
	if n <= bd.opt.cutover() || n%2 != 0 {
		return bd.baseMul(c, a, b)
	}
	if bd.opt.Winograd {
		return bd.winogradNode(c, a, b, depth)
	}
	return bd.classicNode(c, a, b, depth)
}

// temp allocates a recursion temporary of dimension n.
func (bd *builder) temp(n int) operand {
	t := operand{region: bd.arena.New(), n: n}
	if bd.opt.WithMath {
		t.mat = matrix.New(n, n)
	}
	return t
}

// addLeaf builds the leaf for dst = an element-wise combination of
// srcs: len(srcs)−1 additions per element, with run attached (nil
// unless the build has math; sumLeaf and combineLeaf build it).
func (bd *builder) addLeaf(label string, dst operand, run func(), srcs ...operand) task.Ref {
	n := dst.n
	bytes := kernel.Bytes(n, n)
	traffic := float64(len(srcs)+1) * bytes
	var ids [4]task.RegionID
	for i, s := range srcs {
		ids[i] = s.region
	}
	reads, writes := bd.arena.ReadsWrites(ids[:len(srcs)], dst.region)
	w := task.Work{
		Label:       label,
		Kind:        task.KindAdd,
		Flops:       float64(len(srcs)-1) * float64(n) * float64(n),
		Reads:       reads,
		Writes:      writes,
		RegionBytes: bytes,
		Run:         run,
	}
	// Large operands stream through DRAM; small ones live in the
	// workers' share of the LLC.
	if bd.m.LevelFor(traffic, bd.workers) == hw.LevelDRAM {
		w.DRAMBytes = traffic
	} else {
		w.L3Bytes = traffic
	}
	return bd.arena.Leaf(w)
}

// sumLeaf builds dst = x + y, or x − y when sub is set.
func (bd *builder) sumLeaf(label string, dst, x, y operand, sub bool) task.Ref {
	var run func()
	if bd.opt.WithMath {
		dm, xm, ym := dst.mat, x.mat, y.mat
		if sub {
			run = func() { matrix.SubTo(dm, xm, ym) }
		} else {
			run = func() { matrix.AddTo(dm, xm, ym) }
		}
	}
	return bd.addLeaf(label, dst, run, x, y)
}

// combineLeaf builds dst = Σ coeffs[i]·srcs[i].
func (bd *builder) combineLeaf(label string, dst operand, coeffs []float64, srcs ...operand) task.Ref {
	var run func()
	if bd.opt.WithMath {
		mats := make([]*matrix.Dense, len(srcs))
		for i, s := range srcs {
			mats[i] = s.mat
		}
		// The copy keeps the callers' coefficient literals off the heap
		// in shape-only builds.
		dm, cs := dst.mat, append([]float64(nil), coeffs...)
		run = func() { combine(dm, mats, cs) }
	}
	return bd.addLeaf(label, dst, run, srcs...)
}

// baseMul is the dense solver leaf below the cutover.
func (bd *builder) baseMul(c, a, b operand) task.Ref {
	n := a.n
	traffic := kernel.MulTraffic(n, n, n)
	reads, writes := bd.arena.ReadsWrites([]task.RegionID{a.region, b.region}, c.region)
	w := task.Work{
		Label:       bd.arena.Label("basemul n%d", n),
		Kind:        task.KindBaseMul,
		Flops:       kernel.MulFlops(n, n, n),
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
		cm, am, bm := c.mat, a.mat, b.mat
		w.Run = func() { kernel.Mul(cm, am, bm) }
	}
	return bd.arena.Leaf(w)
}

// group wraps subproblem subtrees in Par (task-spawning, BOTS style) or
// Seq when the task-creation depth limit has been passed.
func (bd *builder) group(depth int, children ...task.Ref) task.Ref {
	if bd.opt.TaskDepth > 0 && depth >= bd.opt.TaskDepth {
		return bd.arena.Seq(children...)
	}
	return bd.arena.Par(children...)
}

// sumSpec is one operand sum or difference of a recursion level.
type sumSpec struct {
	dst  operand
	x, y operand
	sub  bool
}

// classicNode builds one level of the paper's Eq. 7 recursion:
// 10 operand additions, 7 recursive products, 8 recombination adds.
func (bd *builder) classicNode(c, a, b operand, depth int) task.Ref {
	half := a.n / 2
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)
	c11, c12, c21, c22 := c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1)

	var t [10]operand
	var q [7]operand
	for i := range t {
		t[i] = bd.temp(half)
	}
	for i := range q {
		q[i] = bd.temp(half)
	}

	pre := [10]sumSpec{
		{t[0], a11, a22, false}, // T1 = A11 + A22
		{t[1], b11, b22, false}, // T2 = B11 + B22
		{t[2], a21, a22, false}, // T3 = A21 + A22
		{t[3], b12, b22, true},  // T4 = B12 − B22
		{t[4], b21, b11, true},  // T5 = B21 − B11
		{t[5], a11, a12, false}, // T6 = A11 + A12
		{t[6], a21, a11, true},  // T7 = A21 − A11
		{t[7], b11, b12, false}, // T8 = B11 + B12
		{t[8], a12, a22, true},  // T9 = A12 − A22
		{t[9], b21, b22, false}, // T10 = B21 + B22
	}
	var preLeaves [10]task.Ref
	for i, s := range pre {
		preLeaves[i] = bd.sumLeaf(bd.arena.Label("pre%d n%d", i, half), s.dst, s.x, s.y, s.sub)
	}

	muls := [7]task.Ref{
		bd.mul(q[0], t[0], t[1], depth+1), // Q1 = (A11+A22)(B11+B22)
		bd.mul(q[1], t[2], b11, depth+1),  // Q2 = (A21+A22)·B11
		bd.mul(q[2], a11, t[3], depth+1),  // Q3 = A11·(B12−B22)
		bd.mul(q[3], a22, t[4], depth+1),  // Q4 = A22·(B21−B11)
		bd.mul(q[4], t[5], b22, depth+1),  // Q5 = (A11+A12)·B22
		bd.mul(q[5], t[6], t[7], depth+1), // Q6 = (A21−A11)(B11+B12)
		bd.mul(q[6], t[8], t[9], depth+1), // Q7 = (A12−A22)(B21+B22)
	}

	post := [4]task.Ref{
		// C11 = Q1 + Q4 − Q5 + Q7
		bd.combineLeaf(bd.arena.Label("c11 n%d", half), c11, []float64{1, 1, -1, 1}, q[0], q[3], q[4], q[6]),
		// C12 = Q3 + Q5
		bd.combineLeaf(bd.arena.Label("c12 n%d", half), c12, []float64{1, 1}, q[2], q[4]),
		// C21 = Q2 + Q4
		bd.combineLeaf(bd.arena.Label("c21 n%d", half), c21, []float64{1, 1}, q[1], q[3]),
		// C22 = Q1 − Q2 + Q3 + Q6
		bd.combineLeaf(bd.arena.Label("c22 n%d", half), c22, []float64{1, -1, 1, 1}, q[0], q[1], q[2], q[5]),
	}

	alloc := 17 * kernel.Bytes(half, half) // T1..T10 + Q1..Q7
	return bd.arena.WithAlloc(bd.arena.Seq(
		bd.group(depth, preLeaves[:]...),
		bd.group(depth, muls[:]...),
		bd.group(depth, post[:]...),
	), alloc)
}

// winogradNode builds one level of the Strassen-Winograd recursion
// (8 operand additions, 7 products, 7 recombination adds).
func (bd *builder) winogradNode(c, a, b operand, depth int) task.Ref {
	half := a.n / 2
	a11, a12, a21, a22 := a.quad(0, 0), a.quad(0, 1), a.quad(1, 0), a.quad(1, 1)
	b11, b12, b21, b22 := b.quad(0, 0), b.quad(0, 1), b.quad(1, 0), b.quad(1, 1)
	c11, c12, c21, c22 := c.quad(0, 0), c.quad(0, 1), c.quad(1, 0), c.quad(1, 1)

	var s [8]operand
	var p [7]operand
	for i := range s {
		s[i] = bd.temp(half)
	}
	for i := range p {
		p[i] = bd.temp(half)
	}

	pre := [8]sumSpec{
		{s[0], a21, a22, false}, // S1 = A21 + A22
		{s[1], s[0], a11, true}, // S2 = S1 − A11   (depends on S1)
		{s[2], a11, a21, true},  // S3 = A11 − A21
		{s[3], a12, s[1], true}, // S4 = A12 − S2   (depends on S2)
		{s[4], b12, b11, true},  // S5 = B12 − B11
		{s[5], b22, s[4], true}, // S6 = B22 − S5   (depends on S5)
		{s[6], b22, b12, true},  // S7 = B22 − B12
		{s[7], s[5], b21, true}, // S8 = S6 − B21   (depends on S6)
	}
	leaf := func(i int) task.Ref {
		sp := pre[i]
		return bd.sumLeaf(bd.arena.Label("wpre%d n%d", i, half), sp.dst, sp.x, sp.y, sp.sub)
	}
	// Chains respect the S-dependencies; independent chains run in
	// parallel.
	preTree := bd.group(depth,
		bd.arena.Seq(leaf(0), leaf(1), leaf(3)), // S1 → S2 → S4
		leaf(2),                                 // S3
		bd.arena.Seq(leaf(4), leaf(5), leaf(7)), // S5 → S6 → S8
		leaf(6),                                 // S7
	)

	muls := [7]task.Ref{
		bd.mul(p[0], s[1], s[5], depth+1), // M1 = S2·S6
		bd.mul(p[1], a11, b11, depth+1),   // M2 = A11·B11
		bd.mul(p[2], a12, b21, depth+1),   // M3 = A12·B21
		bd.mul(p[3], s[2], s[6], depth+1), // M4 = S3·S7
		bd.mul(p[4], s[0], s[4], depth+1), // M5 = S1·S5
		bd.mul(p[5], s[3], b22, depth+1),  // M6 = S4·B22
		bd.mul(p[6], a22, s[7], depth+1),  // M7 = A22·S8
	}

	// Recombination: V1 = M1+M2, V2 = V1+M4,
	// C11 = M2+M3, C12 = V1+M5+M6, C21 = V2−M7, C22 = V2+M5.
	v1 := bd.temp(half)
	v2 := bd.temp(half)
	postTree := bd.arena.Seq(
		bd.group(depth,
			bd.combineLeaf(bd.arena.Label("wv1 n%d", half), v1, []float64{1, 1}, p[0], p[1]),
			bd.combineLeaf(bd.arena.Label("wc11 n%d", half), c11, []float64{1, 1}, p[1], p[2]),
		),
		bd.group(depth,
			bd.combineLeaf(bd.arena.Label("wv2 n%d", half), v2, []float64{1, 1}, v1, p[3]),
			bd.combineLeaf(bd.arena.Label("wc12 n%d", half), c12, []float64{1, 1, 1}, v1, p[4], p[5]),
		),
		bd.group(depth,
			bd.combineLeaf(bd.arena.Label("wc21 n%d", half), c21, []float64{1, -1}, v2, p[6]),
			bd.combineLeaf(bd.arena.Label("wc22 n%d", half), c22, []float64{1, 1}, v2, p[4]),
		),
	)

	alloc := 17 * kernel.Bytes(half, half) // S1..S8, M1..M7, V1, V2
	return bd.arena.WithAlloc(bd.arena.Seq(preTree, bd.group(depth, muls[:]...), postTree), alloc)
}

// combine stores Σ coeff[i]·src[i] into dst.
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

// MulFlopsTotal returns the closed-form multiplication flops of the
// recursion on an n×n problem with the given cutover: 7^k · 2·n0³ with
// n0 the base-case dimension actually reached.
func MulFlopsTotal(n, cutover int) float64 {
	if cutover <= 0 {
		cutover = DefaultCutover
	}
	levels := 0
	for n > cutover && n%2 == 0 {
		n /= 2
		levels++
	}
	f := kernel.MulFlops(n, n, n)
	for i := 0; i < levels; i++ {
		f *= 7
	}
	return f
}

// AddFlopsTotal returns the closed-form addition flops: per level,
// classic Strassen performs 18 element-wise add-operations on (n/2)²
// elements (10 operand sums + 8 in the recombination), Winograd 15.
func AddFlopsTotal(n, cutover int, winograd bool) float64 {
	if cutover <= 0 {
		cutover = DefaultCutover
	}
	perLevel := 18.0
	if winograd {
		perLevel = 15.0
	}
	total := 0.0
	nodes := 1.0
	for n > cutover && n%2 == 0 {
		half := float64(n / 2)
		total += nodes * perLevel * half * half
		nodes *= 7
		n /= 2
	}
	return total
}
