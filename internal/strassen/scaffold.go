package strassen

import (
	"fmt"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/task"
)

// Operand is one matrix argument threaded through a Strassen-family
// recursion: the affinity region it lives in and, when real math is
// on, its data.
type Operand struct {
	Mat    *matrix.Dense
	Region task.RegionID
	N      int
}

// Quad returns quadrant (i, j) of o: the same region at half the
// dimension, with a view of the data when there is any.
func (o Operand) Quad(i, j int) Operand {
	half := o.N / 2
	q := Operand{Region: o.Region, N: half}
	if o.Mat != nil {
		q.Mat = o.Mat.View(i*half, j*half, half, half)
	}
	return q
}

// Scaffold is what every Strassen-family builder shares: the root
// operands and their padding stage, the recursion temporaries, and the
// arithmetic of the add leaves. A builder embeds it and supplies the
// traversal.
type Scaffold struct {
	// M and Workers classify each leaf's traffic (hw.Machine.ChargeTraffic).
	M       *hw.Machine
	Workers int
	// WithMath attaches real arithmetic to the leaves and allocates the
	// temporaries.
	WithMath bool
	// Arena holds the tree's records, labels and region IDs for this
	// one build.
	Arena task.Arena
}

// Root returns the tree computing c = a·b that mul builds over the root
// operands. All three matrices must be square with identical dimension;
// pkg prefixes the panics. Sizes that do not halve evenly down to
// cutover are padded once, up front, to the nearest c·2^k with
// c ≤ cutover (see PaddedSize) — at most a few percent of extra work
// for awkward n, instead of collapsing to one dense n³ solve.
func (s *Scaffold) Root(pkg string, c, a, b *matrix.Dense, cutover int, mul func(c, a, b Operand) task.Ref) *task.Node {
	n := a.Rows()
	if !a.IsSquare() || !b.IsSquare() || !c.IsSquare() || b.Rows() != n || c.Rows() != n {
		panic(fmt.Sprintf("%s: need equal square matrices, got %dx%d %dx%d %dx%d",
			pkg, a.Rows(), a.Cols(), b.Rows(), b.Cols(), c.Rows(), c.Cols()))
	}
	if s.Workers < 1 {
		panic(fmt.Sprintf("%s: workers %d", pkg, s.Workers))
	}
	padded := PaddedSize(n, cutover)
	ca := Operand{Region: s.Arena.New(), N: padded}
	cb := Operand{Region: s.Arena.New(), N: padded}
	cc := Operand{Region: s.Arena.New(), N: padded}
	if padded == n {
		if s.WithMath {
			ca.Mat, cb.Mat, cc.Mat = a, b, c
		}
		return s.Arena.Node(mul(cc, ca, cb))
	}
	if s.WithMath {
		ca.Mat = matrix.PadTo(a, padded, padded)
		cb.Mat = matrix.PadTo(b, padded, padded)
		cc.Mat = matrix.New(padded, padded)
	}
	srcA, srcB, dstC := s.Arena.New(), s.Arena.New(), s.Arena.New()
	// Padding happened at build time when math is on, so the pad-in
	// leaves only carry the traffic accounting.
	padIn := s.Arena.Par(
		s.padCopy(s.Arena.Label("pad A %d->%d", n, padded), n, srcA, ca.Region, nil),
		s.padCopy(s.Arena.Label("pad B %d->%d", n, padded), n, srcB, cb.Region, nil),
	)
	var unpad func()
	if s.WithMath {
		pc := cc.Mat
		unpad = func() { matrix.CopyTo(c, pc.View(0, 0, n, n)) }
	}
	padOut := s.padCopy(s.Arena.Label("unpad C %d->%d", padded, n), n, cc.Region, dstC, unpad)
	alloc := 3 * kernel.Bytes(padded, padded)
	return s.Arena.Node(s.Arena.WithAlloc(s.Arena.Seq(padIn, mul(cc, ca, cb), padOut), alloc))
}

// padCopy is one n×n pad or unpad copy from region src to dst.
func (s *Scaffold) padCopy(label string, n int, src, dst task.RegionID, run func()) task.Ref {
	reads, writes := s.Arena.ReadsWrites([]task.RegionID{src}, dst)
	return s.Arena.Leaf(task.Work{
		Label:       label,
		Kind:        task.KindCopy,
		DRAMBytes:   2 * kernel.Bytes(n, n),
		Reads:       reads,
		Writes:      writes,
		RegionBytes: kernel.Bytes(n, n),
		Run:         run,
	})
}

// Temp allocates a recursion temporary of dimension n.
func (s *Scaffold) Temp(n int) Operand {
	t := Operand{Region: s.Arena.New(), N: n}
	if s.WithMath {
		t.Mat = matrix.New(n, n)
	}
	return t
}

// SumRun returns the arithmetic of dst = x + y, or x − y when sub is
// set: nil unless the build has math.
func (s *Scaffold) SumRun(dst, x, y Operand, sub bool) func() {
	if !s.WithMath {
		return nil
	}
	dm, xm, ym := dst.Mat, x.Mat, y.Mat
	if sub {
		return func() { matrix.SubTo(dm, xm, ym) }
	}
	return func() { matrix.AddTo(dm, xm, ym) }
}

// CombineRun returns the arithmetic of dst = Σ coeffs[i]·srcs[i]: nil
// unless the build has math.
func (s *Scaffold) CombineRun(dst Operand, coeffs []float64, srcs ...Operand) func() {
	if !s.WithMath {
		return nil
	}
	mats := make([]*matrix.Dense, len(srcs))
	for i, src := range srcs {
		mats[i] = src.Mat
	}
	// The copy keeps the callers' coefficient literals off the heap in
	// shape-only builds.
	dm, cs := dst.Mat, append([]float64(nil), coeffs...)
	return func() {
		rows, cols := dm.Rows(), dm.Cols()
		for i := 0; i < rows; i++ {
			dr := dm.Row(i)
			for j := 0; j < cols; j++ {
				v := 0.0
				for k, src := range mats {
					v += cs[k] * src.Row(i)[j]
				}
				dr[j] = v
			}
		}
	}
}
