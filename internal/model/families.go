// Phantom accountants: closed-form complexity terms for the node
// algorithm families. Each mirrors its builder's leaf emission exactly
// (same blocking, same traffic classification, same structure for the
// span recursion) without allocating a task tree — prediction stays
// microseconds per cell where a tree build alone costs tens of
// milliseconds at paper sizes. The mirrors are pinned against the real
// builders in the package tests.
package model

import (
	"capscale/internal/blas"
	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// acc accumulates leaf-class costs at uncontended bandwidth, the same
// baseline CriticalPath and SerialTime use.
type acc struct {
	m *hw.Machine
	c hw.Contention
	t Terms
}

func newAcc(m *hw.Machine, f Family, workers int) *acc {
	return &acc{m: m, c: m.Uncontended(), t: Terms{Family: f, Workers: workers}}
}

// leaf charges `count` identical leaves and returns the uncontended
// duration of one.
func (a *acc) leaf(w task.Work, count float64) float64 {
	lc := a.m.CostLeaf(&w, a.c, 0, false)
	a.t.CompSeconds += count * lc.Utilization * lc.Duration
	a.t.Flops += count * w.Flops
	a.t.DRAMBytes += count * w.DRAMBytes
	a.t.L3Bytes += count * w.L3Bytes
	a.t.Leaves += count
	a.t.BusySeconds += count * lc.Duration
	return lc.Duration
}

// FromTree derives the terms of an already-built task tree — used for
// the sparse workloads (their builders are cheap, O(n+nnz)) and to
// validate the phantom accountants against the real dense trees.
func FromTree(m *hw.Machine, f Family, root *task.Node, workers int) Terms {
	a := newAcc(m, f, workers)
	t := root.Tree()
	var rec func(r task.Ref)
	rec = func(r task.Ref) {
		if t.IsLeaf(r) {
			d := t.Demand(r)
			a.leaf(task.Work{Kind: d.Kind, Flops: d.Flops, L3Bytes: d.L3Bytes, DRAMBytes: d.DRAMBytes}, 1)
			return
		}
		for i, k := 0, t.NumChildren(r); i < k; i++ {
			rec(t.Child(r, i))
		}
	}
	rec(root.Ref())
	a.t.SpanSeconds = m.CriticalPath(root)
	return a.t
}

// Classic mirrors blas.Build: Goto blocking from blas.PlanFor, a packed
// B panel per K step (worker-split copy chunks) followed by the
// M-partitioned GEMM chains.
func Classic(m *hw.Machine, n, workers int) Terms {
	a := newAcc(m, FamilyClassic, workers)
	plan := blas.PlanFor(m, n, n, n)
	span := 0.0
	N, K, M := n, n, n
	for jc := 0; jc < N; jc += plan.NC {
		ncCur := min(plan.NC, N-jc)
		for kc := 0; kc < K; kc += plan.KC {
			kcCur := min(plan.KC, K-kc)

			// Pack stage: row chunks of the KC×NC panel across workers.
			chunks := workers
			if chunks > kcCur {
				chunks = kcCur
			}
			packSpan := 0.0
			for t := 0; t < chunks; t++ {
				rows := kcCur*(t+1)/chunks - kcCur*t/chunks
				if rows == 0 {
					continue
				}
				d := a.leaf(task.Work{
					Kind:      task.KindCopy,
					DRAMBytes: kernel.Bytes(rows, ncCur),
					L3Bytes:   kernel.Bytes(rows, ncCur),
				}, 1)
				if d > packSpan {
					packSpan = d
				}
			}
			span += packSpan

			// Compute stage: ic blocks dealt round-robin into per-worker
			// pinned chains; the stage's span is the longest chain.
			var chainDur []float64
			for t := 0; t < workers; t++ {
				chainDur = append(chainDur, 0)
			}
			bi := 0
			for ic := 0; ic < M; ic += plan.MC {
				mcCur := min(plan.MC, M-ic)
				d := a.leaf(task.Work{
					Kind:      task.KindGEMM,
					Flops:     kernel.MulFlops(mcCur, ncCur, kcCur),
					DRAMBytes: kernel.Bytes(mcCur, kcCur) + 2*kernel.Bytes(mcCur, ncCur),
					L3Bytes:   kernel.Bytes(kcCur, ncCur),
				}, 1)
				chainDur[bi%workers] += d
				bi++
			}
			computeSpan := 0.0
			for _, d := range chainDur {
				if d > computeSpan {
					computeSpan = d
				}
			}
			span += computeSpan
		}
	}
	a.t.SpanSeconds = span
	return a.t
}

// subSummary is the memoized per-subtree accounting of the recursive
// accountants: totals plus the subtree span.
type subSummary struct {
	comp, flops, dram, l3, leaves, busy, span float64
}

func (s *subSummary) addLeafInto(a *acc, w task.Work, count float64) float64 {
	lc := a.m.CostLeaf(&w, a.c, 0, false)
	s.comp += count * lc.Utilization * lc.Duration
	s.flops += count * w.Flops
	s.dram += count * w.DRAMBytes
	s.l3 += count * w.L3Bytes
	s.leaves += count
	s.busy += count * lc.Duration
	return lc.Duration
}

func (s *subSummary) addChild(c subSummary, count float64) {
	s.comp += count * c.comp
	s.flops += count * c.flops
	s.dram += count * c.dram
	s.l3 += count * c.l3
	s.leaves += count * c.leaves
	s.busy += count * c.busy
}

func (s subSummary) intoTerms(t *Terms) {
	t.CompSeconds = s.comp
	t.Flops = s.flops
	t.DRAMBytes = s.dram
	t.L3Bytes = s.l3
	t.Leaves = s.leaves
	t.BusySeconds = s.busy
	t.SpanSeconds = s.span
}

// classifiedWork builds an Add/Copy/BaseMul work item with frac of its
// traffic charged the way the builders charge it (hw.ChargeTraffic).
func classifiedWork(m *hw.Machine, kind task.Kind, flops, wholeTraffic, frac float64, workers int) task.Work {
	w := task.Work{Kind: kind, Flops: flops * frac}
	m.ChargeTraffic(&w, wholeTraffic, workers, frac)
	return w
}

// Strassen mirrors strassen.Build with the workload's default options
// (cutover 64): 10+4 add leaves per classic level or 8+6 for Winograd,
// seven recursive products, a dense base-case leaf, plus the
// pad-in/pad-out stage for awkward sizes. All seven children of a node
// are identical, so the recursion memoizes on dimension.
func Strassen(m *hw.Machine, n, workers int, winograd bool) Terms {
	a := newAcc(m, FamilyStrassen, workers)
	sa := &strassenAcc{a: a, winograd: winograd, memo: map[int]subSummary{}}
	cutover := strassen.DefaultCutover
	padded := strassen.PaddedSize(n, cutover)
	s := sa.mul(padded)
	if padded != n {
		// strassen.Scaffold.Root: Par(pad A, pad B) → recursion →
		// unpad C; the pad copies always charge DRAM.
		pad := subSummary{}
		d := pad.addLeafInto(a, task.Work{Kind: task.KindCopy, DRAMBytes: 2 * kernel.Bytes(n, n)}, 3)
		pad.addChild(s, 1)
		pad.span = d + s.span + d
		s = pad
	}
	s.intoTerms(&a.t)
	return a.t
}

type strassenAcc struct {
	a        *acc
	winograd bool
	memo     map[int]subSummary
}

func (sa *strassenAcc) mul(n int) subSummary {
	if s, ok := sa.memo[n]; ok {
		return s
	}
	var s subSummary
	m, workers := sa.a.m, sa.a.t.Workers
	if n <= strassen.DefaultCutover || n%2 != 0 {
		d := s.addLeafInto(sa.a, classifiedWork(m, task.KindBaseMul, kernel.MulFlops(n, n, n), kernel.MulTraffic(n, n, n), 1, workers), 1)
		s.span = d
		sa.memo[n] = s
		return s
	}
	half := n / 2
	child := sa.mul(half)
	addDur := func(addOps, srcs int, count float64) float64 {
		traffic := float64(srcs+1) * kernel.Bytes(half, half)
		return s.addLeafInto(sa.a, classifiedWork(m, task.KindAdd, float64(addOps)*float64(half)*float64(half), traffic, 1, workers), count)
	}
	if sa.winograd {
		// Pre: 8 identical 2-source adds in two chains of three plus
		// two singles — the chains bound the group's span.
		d := addDur(1, 2, 8)
		preSpan := 3 * d
		// Post: three sequential pairs — (v1,c11), (v2,c12), (c21,c22).
		d1 := addDur(1, 2, 1) // v1
		d2 := addDur(1, 2, 1) // c11
		g1 := maxf(d1, d2)
		d3 := addDur(1, 2, 1) // v2
		d4 := addDur(2, 3, 1) // c12
		g2 := maxf(d3, d4)
		d5 := addDur(1, 2, 1) // c21
		d6 := addDur(1, 2, 1) // c22
		g3 := maxf(d5, d6)
		s.addChild(child, 7)
		s.span = preSpan + child.span + g1 + g2 + g3
	} else {
		// Pre: 10 identical 2-source adds, all parallel.
		preSpan := addDur(1, 2, 10)
		// Post: C11(3 ops, 4 srcs), C12(1,2), C21(1,2), C22(3,4).
		p1 := addDur(3, 4, 2) // c11 and c22
		p2 := addDur(1, 2, 2) // c12 and c21
		s.addChild(child, 7)
		s.span = preSpan + child.span + maxf(p1, p2)
	}
	sa.memo[n] = s
	return s
}

// CAPS mirrors caps.Build with default options (cutover 64, cutoff
// depth 4): BFS levels with per-index owner masks (staged copies,
// work-shared adds, gather copies), DFS below the cutoff with a single
// owner, and the dense base case. The BFS region is at most
// 1+7+49+343+2401 nodes; the single-owner DFS region memoizes on
// dimension.
func CAPS(m *hw.Machine, n, workers int) Terms {
	a := newAcc(m, FamilyCAPS, workers)
	cutover := strassen.DefaultCutover
	padded := strassen.PaddedSize(n, cutover)
	maxDepth := 0
	for v := padded; v > cutover && v%2 == 0; v /= 2 {
		maxDepth++
	}
	bfsLevels := 4 // caps.DefaultCutoffDepth
	if bfsLevels > maxDepth {
		bfsLevels = maxDepth
	}
	leavesAtCutoff := 1
	for i := 0; i < bfsLevels; i++ {
		leavesAtCutoff *= 7
	}
	ca := &capsAcc{a: a, bfsLevels: bfsLevels, leavesAtCutoff: leavesAtCutoff, dfsMemo: map[int]subSummary{}}
	s := ca.mul(padded, 0, 0)
	if padded != n {
		pad := subSummary{}
		d := pad.addLeafInto(a, task.Work{Kind: task.KindCopy, DRAMBytes: 2 * kernel.Bytes(n, n)}, 3)
		pad.addChild(s, 1)
		pad.span = d + s.span + d
		s = pad
	}
	s.intoTerms(&a.t)
	return a.t
}

type capsAcc struct {
	a              *acc
	bfsLevels      int
	leavesAtCutoff int
	dfsMemo        map[int]subSummary
}

// owners mirrors caps.ownerMask + ownersOf: the worker count owning the
// subtree at (depth, idx).
func (ca *capsAcc) owners(depth, idx int) int {
	if ca.bfsLevels == 0 {
		return ca.a.t.Workers
	}
	var lo, hi int
	if depth >= ca.bfsLevels {
		for d := depth; d > ca.bfsLevels; d-- {
			idx /= 7
		}
		lo, hi = idx, idx
	} else {
		span := ca.leavesAtCutoff
		for i := 0; i < depth; i++ {
			span /= 7
		}
		lo = idx * span
		hi = lo + span - 1
	}
	workers := ca.a.t.Workers
	wLo := lo * workers / ca.leavesAtCutoff
	wHi := hi * workers / ca.leavesAtCutoff
	return wHi - wLo + 1
}

func (ca *capsAcc) mul(n, depth, idx int) subSummary {
	if n <= strassen.DefaultCutover || n%2 != 0 {
		return ca.baseMul(n, ca.owners(depth, idx))
	}
	if depth < ca.bfsLevels {
		return ca.bfsNode(n, depth, idx)
	}
	return ca.dfsNode(n, depth, idx)
}

// baseMul mirrors caps.baseMul: a single leaf for one owner, row-chunked
// work sharing otherwise, with per-chunk traffic classification.
func (ca *capsAcc) baseMul(n, owners int) subSummary {
	var s subSummary
	m, workers := ca.a.m, ca.a.t.Workers
	if owners > n {
		owners = n
	}
	mk := func(rows int, count float64) float64 {
		traffic := 3*kernel.Bytes(rows, n) + kernel.Bytes(n, n)
		return s.addLeafInto(ca.a, classifiedWork(m, task.KindBaseMul, kernel.MulFlops(rows, n, n), traffic, 1, workers), count)
	}
	if owners <= 1 {
		s.span = mk(n, 1)
		return s
	}
	for t := 0; t < owners; t++ {
		rows := n*(t+1)/owners - n*t/owners
		if rows == 0 {
			continue
		}
		if d := mk(rows, 1); d > s.span {
			s.span = d
		}
	}
	return s
}

// addLeaf mirrors caps.addLeaf: whole-traffic classification, split
// into `owners` equal chunks; returns the chunk duration (the leaf's
// contribution to a parallel group's span).
func (ca *capsAcc) addLeaf(s *subSummary, half, addOps, srcs, owners int) float64 {
	m, workers := ca.a.m, ca.a.t.Workers
	traffic := float64(srcs+1) * kernel.Bytes(half, half)
	flops := float64(addOps) * float64(half) * float64(half)
	if owners <= 1 {
		return s.addLeafInto(ca.a, classifiedWork(m, task.KindAdd, flops, traffic, 1, workers), 1)
	}
	frac := 1 / float64(owners)
	return s.addLeafInto(ca.a, classifiedWork(m, task.KindAdd, flops, traffic, frac, workers), float64(owners))
}

// copyLeaf mirrors caps.copyLeaf: one staging copy, never chunked.
func (ca *capsAcc) copyLeaf(s *subSummary, half int) float64 {
	m, workers := ca.a.m, ca.a.t.Workers
	return s.addLeafInto(ca.a, classifiedWork(m, task.KindCopy, 0, 2*kernel.Bytes(half, half), 1, workers), 1)
}

// loneFactor reports, per subproblem k, whether the left/right factor
// is a bare quadrant (Q3,Q4 left; Q2,Q5 right in caps.buildSubproblems).
func loneFactor(k int) (left, right bool) {
	return k == 2 || k == 3, k == 1 || k == 4
}

func (ca *capsAcc) bfsNode(n, depth, idx int) subSummary {
	var s subSummary
	half := n / 2
	prepSpan, recSpan, gatherSpan := 0.0, 0.0, 0.0
	for k := 0; k < 7; k++ {
		childOwners := ca.owners(depth+1, idx*7+k)
		lone, rone := loneFactor(k)
		for _, isLone := range []bool{lone, rone} {
			var d float64
			if isLone {
				d = ca.copyLeaf(&s, half) // staged bare quadrant
			} else {
				d = ca.addLeaf(&s, half, 1, 2, childOwners)
			}
			if d > prepSpan {
				prepSpan = d
			}
		}
		child := ca.mul(half, depth+1, idx*7+k)
		s.addChild(child, 1)
		if child.span > recSpan {
			recSpan = child.span
		}
		if d := ca.copyLeaf(&s, half); d > gatherSpan {
			gatherSpan = d
		}
	}
	s.span = prepSpan + recSpan + gatherSpan + ca.recombine(&s, half, ca.owners(depth, idx))
	return s
}

// recombine mirrors caps.recombine, returning the group's span.
func (ca *capsAcc) recombine(s *subSummary, half, owners int) float64 {
	d1 := ca.addLeaf(s, half, 3, 4, owners) // c11
	d2 := ca.addLeaf(s, half, 1, 2, owners) // c12
	d3 := ca.addLeaf(s, half, 1, 2, owners) // c21
	d4 := ca.addLeaf(s, half, 3, 4, owners) // c22
	return maxf(maxf(d1, d2), maxf(d3, d4))
}

func (ca *capsAcc) dfsNode(n, depth, idx int) subSummary {
	owners := ca.owners(depth, idx)
	// Below the BFS cutoff every subtree has one owner, so the summary
	// depends only on the dimension.
	if owners == 1 {
		if s, ok := ca.dfsMemo[n]; ok {
			return s
		}
	}
	var s subSummary
	half := n / 2
	for k := 0; k < 7; k++ {
		lone, rone := loneFactor(k)
		preSpan := 0.0
		for _, isLone := range []bool{lone, rone} {
			if isLone {
				continue // DFS uses bare quadrants in place
			}
			if d := ca.addLeaf(&s, half, 1, 2, owners); d > preSpan {
				preSpan = d
			}
		}
		child := ca.mul(half, depth+1, idx*7+k)
		s.addChild(child, 1)
		s.span += preSpan + child.span
	}
	s.span += ca.recombine(&s, half, owners)
	if owners == 1 {
		ca.dfsMemo[n] = s
	}
	return s
}

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
