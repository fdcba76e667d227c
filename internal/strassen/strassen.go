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
// The package also owns the Strassen-family scaffold (Scaffold,
// Operand): the root operands and their padding stage, the recursion
// temporaries and the add leaves' arithmetic. Its builder and the CAPS
// builder (internal/caps) embed it and differ only in traversal.
//
// Note: the paper's printed Q5 reads (A11 + B12)·B22, which mixes
// operands of A and B; the standard — and only shape-consistent — term
// is (A11 + A12)·B22, which is what this package implements.
package strassen

import (
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

type builder struct {
	Scaffold
	opt Options
}

// Build returns the task tree computing c = a·b by parallel Strassen,
// a task per subproblem at every level, as BOTS does. All three
// matrices must be square with identical dimension. workers is the
// thread count the run will use; it informs the traffic model's
// cache-share estimates.
func Build(m *hw.Machine, c, a, b *matrix.Dense, workers int, opt Options) *task.Node {
	bd := &builder{Scaffold: Scaffold{M: m, Workers: workers, WithMath: opt.WithMath}, opt: opt}
	return bd.Root("strassen", c, a, b, opt.cutover(), bd.mul)
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

// mul builds the subtree computing c = a·b for n×n operands.
func (bd *builder) mul(c, a, b Operand) task.Ref {
	n := a.N
	if n <= bd.opt.cutover() || n%2 != 0 {
		return bd.baseMul(c, a, b)
	}
	if bd.opt.Winograd {
		return bd.winogradNode(c, a, b)
	}
	return bd.classicNode(c, a, b)
}

// addLeaf builds the leaf for dst = an element-wise combination of
// srcs: len(srcs)−1 additions per element, with run attached (nil
// unless the build has math; sumLeaf and combineLeaf build it).
func (bd *builder) addLeaf(label string, dst Operand, run func(), srcs ...Operand) task.Ref {
	n := dst.N
	bytes := kernel.Bytes(n, n)
	var ids [4]task.RegionID
	for i, s := range srcs {
		ids[i] = s.Region
	}
	reads, writes := bd.Arena.ReadsWrites(ids[:len(srcs)], dst.Region)
	w := task.Work{
		Label:       label,
		Kind:        task.KindAdd,
		Flops:       float64(len(srcs)-1) * float64(n) * float64(n),
		Reads:       reads,
		Writes:      writes,
		RegionBytes: bytes,
		Run:         run,
	}
	bd.M.ChargeTraffic(&w, float64(len(srcs)+1)*bytes, bd.Workers, 1)
	return bd.Arena.Leaf(w)
}

// sumLeaf builds dst = x + y, or x − y when sub is set.
func (bd *builder) sumLeaf(label string, dst, x, y Operand, sub bool) task.Ref {
	return bd.addLeaf(label, dst, bd.SumRun(dst, x, y, sub), x, y)
}

// combineLeaf builds dst = Σ coeffs[i]·srcs[i].
func (bd *builder) combineLeaf(label string, dst Operand, coeffs []float64, srcs ...Operand) task.Ref {
	return bd.addLeaf(label, dst, bd.CombineRun(dst, coeffs, srcs...), srcs...)
}

// baseMul is the dense solver leaf below the cutover.
func (bd *builder) baseMul(c, a, b Operand) task.Ref {
	n := a.N
	reads, writes := bd.Arena.ReadsWrites([]task.RegionID{a.Region, b.Region}, c.Region)
	w := task.Work{
		Label:       bd.Arena.Label("basemul n%d", n),
		Kind:        task.KindBaseMul,
		Flops:       kernel.MulFlops(n, n, n),
		Reads:       reads,
		Writes:      writes,
		RegionBytes: kernel.Bytes(n, n),
	}
	bd.M.ChargeTraffic(&w, kernel.MulTraffic(n, n, n), bd.Workers, 1)
	if bd.WithMath {
		cm, am, bm := c.Mat, a.Mat, b.Mat
		w.Run = func() { kernel.Mul(cm, am, bm) }
	}
	return bd.Arena.Leaf(w)
}

// sumSpec is one operand sum or difference of a recursion level.
type sumSpec struct {
	dst  Operand
	x, y Operand
	sub  bool
}

// classicNode builds one level of the paper's Eq. 7 recursion:
// 10 operand additions, 7 recursive products, 8 recombination adds.
func (bd *builder) classicNode(c, a, b Operand) task.Ref {
	half := a.N / 2
	a11, a12, a21, a22 := a.Quad(0, 0), a.Quad(0, 1), a.Quad(1, 0), a.Quad(1, 1)
	b11, b12, b21, b22 := b.Quad(0, 0), b.Quad(0, 1), b.Quad(1, 0), b.Quad(1, 1)
	c11, c12, c21, c22 := c.Quad(0, 0), c.Quad(0, 1), c.Quad(1, 0), c.Quad(1, 1)

	var t [10]Operand
	var q [7]Operand
	for i := range t {
		t[i] = bd.Temp(half)
	}
	for i := range q {
		q[i] = bd.Temp(half)
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
		preLeaves[i] = bd.sumLeaf(bd.Arena.Label("pre%d n%d", i, half), s.dst, s.x, s.y, s.sub)
	}

	muls := [7]task.Ref{
		bd.mul(q[0], t[0], t[1]), // Q1 = (A11+A22)(B11+B22)
		bd.mul(q[1], t[2], b11),  // Q2 = (A21+A22)·B11
		bd.mul(q[2], a11, t[3]),  // Q3 = A11·(B12−B22)
		bd.mul(q[3], a22, t[4]),  // Q4 = A22·(B21−B11)
		bd.mul(q[4], t[5], b22),  // Q5 = (A11+A12)·B22
		bd.mul(q[5], t[6], t[7]), // Q6 = (A21−A11)(B11+B12)
		bd.mul(q[6], t[8], t[9]), // Q7 = (A12−A22)(B21+B22)
	}

	post := [4]task.Ref{
		// C11 = Q1 + Q4 − Q5 + Q7
		bd.combineLeaf(bd.Arena.Label("c11 n%d", half), c11, []float64{1, 1, -1, 1}, q[0], q[3], q[4], q[6]),
		// C12 = Q3 + Q5
		bd.combineLeaf(bd.Arena.Label("c12 n%d", half), c12, []float64{1, 1}, q[2], q[4]),
		// C21 = Q2 + Q4
		bd.combineLeaf(bd.Arena.Label("c21 n%d", half), c21, []float64{1, 1}, q[1], q[3]),
		// C22 = Q1 − Q2 + Q3 + Q6
		bd.combineLeaf(bd.Arena.Label("c22 n%d", half), c22, []float64{1, -1, 1, 1}, q[0], q[1], q[2], q[5]),
	}

	alloc := 17 * kernel.Bytes(half, half) // T1..T10 + Q1..Q7
	return bd.Arena.WithAlloc(bd.Arena.Seq(
		bd.Arena.Par(preLeaves[:]...),
		bd.Arena.Par(muls[:]...),
		bd.Arena.Par(post[:]...),
	), alloc)
}

// winogradNode builds one level of the Strassen-Winograd recursion
// (8 operand additions, 7 products, 7 recombination adds).
func (bd *builder) winogradNode(c, a, b Operand) task.Ref {
	half := a.N / 2
	a11, a12, a21, a22 := a.Quad(0, 0), a.Quad(0, 1), a.Quad(1, 0), a.Quad(1, 1)
	b11, b12, b21, b22 := b.Quad(0, 0), b.Quad(0, 1), b.Quad(1, 0), b.Quad(1, 1)
	c11, c12, c21, c22 := c.Quad(0, 0), c.Quad(0, 1), c.Quad(1, 0), c.Quad(1, 1)

	var s [8]Operand
	var p [7]Operand
	for i := range s {
		s[i] = bd.Temp(half)
	}
	for i := range p {
		p[i] = bd.Temp(half)
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
		return bd.sumLeaf(bd.Arena.Label("wpre%d n%d", i, half), sp.dst, sp.x, sp.y, sp.sub)
	}
	// Chains respect the S-dependencies; independent chains run in
	// parallel.
	preTree := bd.Arena.Par(
		bd.Arena.Seq(leaf(0), leaf(1), leaf(3)), // S1 → S2 → S4
		leaf(2),                                 // S3
		bd.Arena.Seq(leaf(4), leaf(5), leaf(7)), // S5 → S6 → S8
		leaf(6),                                 // S7
	)

	muls := [7]task.Ref{
		bd.mul(p[0], s[1], s[5]), // M1 = S2·S6
		bd.mul(p[1], a11, b11),   // M2 = A11·B11
		bd.mul(p[2], a12, b21),   // M3 = A12·B21
		bd.mul(p[3], s[2], s[6]), // M4 = S3·S7
		bd.mul(p[4], s[0], s[4]), // M5 = S1·S5
		bd.mul(p[5], s[3], b22),  // M6 = S4·B22
		bd.mul(p[6], a22, s[7]),  // M7 = A22·S8
	}

	// Recombination: V1 = M1+M2, V2 = V1+M4,
	// C11 = M2+M3, C12 = V1+M5+M6, C21 = V2−M7, C22 = V2+M5.
	v1 := bd.Temp(half)
	v2 := bd.Temp(half)
	postTree := bd.Arena.Seq(
		bd.Arena.Par(
			bd.combineLeaf(bd.Arena.Label("wv1 n%d", half), v1, []float64{1, 1}, p[0], p[1]),
			bd.combineLeaf(bd.Arena.Label("wc11 n%d", half), c11, []float64{1, 1}, p[1], p[2]),
		),
		bd.Arena.Par(
			bd.combineLeaf(bd.Arena.Label("wv2 n%d", half), v2, []float64{1, 1}, v1, p[3]),
			bd.combineLeaf(bd.Arena.Label("wc12 n%d", half), c12, []float64{1, 1, 1}, v1, p[4], p[5]),
		),
		bd.Arena.Par(
			bd.combineLeaf(bd.Arena.Label("wc21 n%d", half), c21, []float64{1, -1}, v2, p[6]),
			bd.combineLeaf(bd.Arena.Label("wc22 n%d", half), c22, []float64{1, 1}, v2, p[4]),
		),
	)

	alloc := 17 * kernel.Bytes(half, half) // S1..S8, M1..M7, V1, V2
	return bd.Arena.WithAlloc(bd.Arena.Seq(preTree, bd.Arena.Par(muls[:]...), postTree), alloc)
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
