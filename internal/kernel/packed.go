package kernel

import (
	"fmt"
	"sync"

	"capscale/internal/matrix"
)

// Packed, register-blocked GEMM — the real-arithmetic counterpart of
// the Goto structure the blocked-DGEMM task tree models. A is packed
// into MR-row panels and B into NR-column panels so the inner kernel
// streams both contiguously and accumulates a MR×NR block of C in
// scalar registers.

// MR and NR are the micro-kernel's register block dimensions.
const (
	MR = 4
	NR = 4
)

// micro's register file is hand-unrolled for a 4×4 block. These
// constants fail to compile (negative constant converted to uint) if
// MR or NR is changed without rewriting micro, instead of letting the
// stale unroll silently corrupt results.
const (
	_ = uint(MR - 4)
	_ = uint(4 - MR)
	_ = uint(NR - 4)
	_ = uint(4 - NR)
)

// PackA packs the mc×kc block of a starting at (i0, k0) into MR-row
// panels: panel-major, then k, then row-within-panel. dst must hold
// ceil(mc/MR)·MR·kc elements; rows beyond mc are zero-filled.
func PackA(dst []float64, a *matrix.Dense, i0, k0, mc, kc int) {
	need := ((mc + MR - 1) / MR) * MR * kc
	if len(dst) < need {
		panic(fmt.Sprintf("kernel: PackA dst %d < %d", len(dst), need))
	}
	idx := 0
	for ip := 0; ip < mc; ip += MR {
		for k := 0; k < kc; k++ {
			for r := 0; r < MR; r++ {
				if ip+r < mc {
					dst[idx] = a.At(i0+ip+r, k0+k)
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// PackB packs the kc×nc block of b starting at (k0, j0) into NR-column
// panels: panel-major, then k, then column-within-panel. dst must hold
// ceil(nc/NR)·NR·kc elements; columns beyond nc are zero-filled.
func PackB(dst []float64, b *matrix.Dense, k0, j0, kc, nc int) {
	need := ((nc + NR - 1) / NR) * NR * kc
	if len(dst) < need {
		panic(fmt.Sprintf("kernel: PackB dst %d < %d", len(dst), need))
	}
	idx := 0
	for jp := 0; jp < nc; jp += NR {
		for k := 0; k < kc; k++ {
			for c := 0; c < NR; c++ {
				if jp+c < nc {
					dst[idx] = b.At(k0+k, j0+jp+c)
				} else {
					dst[idx] = 0
				}
				idx++
			}
		}
	}
}

// micro accumulates a MR×NR block of C from packed panels ap (one
// MR-row panel, kc steps) and bp (one NR-column panel, kc steps). mr
// and nr bound the rows/columns actually stored (edge blocks).
func micro(kc int, ap, bp []float64, c *matrix.Dense, i, j, mr, nr int) {
	var c00, c01, c02, c03 float64
	var c10, c11, c12, c13 float64
	var c20, c21, c22, c23 float64
	var c30, c31, c32, c33 float64
	for k := 0; k < kc; k++ {
		a0, a1, a2, a3 := ap[k*MR], ap[k*MR+1], ap[k*MR+2], ap[k*MR+3]
		b0, b1, b2, b3 := bp[k*NR], bp[k*NR+1], bp[k*NR+2], bp[k*NR+3]
		c00 += a0 * b0
		c01 += a0 * b1
		c02 += a0 * b2
		c03 += a0 * b3
		c10 += a1 * b0
		c11 += a1 * b1
		c12 += a1 * b2
		c13 += a1 * b3
		c20 += a2 * b0
		c21 += a2 * b1
		c22 += a2 * b2
		c23 += a2 * b3
		c30 += a3 * b0
		c31 += a3 * b1
		c32 += a3 * b2
		c33 += a3 * b3
	}
	acc := [MR][NR]float64{
		{c00, c01, c02, c03},
		{c10, c11, c12, c13},
		{c20, c21, c22, c23},
		{c30, c31, c32, c33},
	}
	for r := 0; r < mr; r++ {
		row := c.Row(i + r)
		for cc := 0; cc < nr; cc++ {
			row[j+cc] += acc[r][cc]
		}
	}
}

// packBufPool recycles packing buffers across GemmPacked calls, which
// sched workers make concurrently from the blas tree's leaves. It
// stores *[]float64 so Put does not allocate a slice-header box.
var packBufPool = sync.Pool{New: func() any { return new([]float64) }}

// getPackBuf returns a pooled buffer with at least n elements. The
// contents are undefined; PackA/PackB fully overwrite the prefix they
// use.
func getPackBuf(n int) *[]float64 {
	p := packBufPool.Get().(*[]float64)
	if cap(*p) < n {
		*p = make([]float64, n)
	}
	*p = (*p)[:n]
	return p
}

func putPackBuf(p *[]float64) { packBufPool.Put(p) }

// GemmPacked computes dst += a·b with three-level cache blocking
// (mc×kc blocks of A against kc×nc panels of B) around the packed
// micro-kernel. Zero block parameters select reasonable defaults.
// Packing buffers come from a shared pool, so steady-state calls
// allocate nothing.
func GemmPacked(dst, a, b *matrix.Dense, mc, kc, nc int) {
	m, k, n := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != k || dst.Rows() != m || dst.Cols() != n {
		panic(fmt.Sprintf("kernel: GemmPacked shapes %dx%d * %dx%d -> %dx%d",
			m, k, b.Rows(), n, dst.Rows(), dst.Cols()))
	}
	if mc <= 0 {
		mc = 128
	}
	if kc <= 0 {
		kc = 128
	}
	if nc <= 0 {
		nc = 512
	}

	bpP := getPackBuf(((nc + NR - 1) / NR) * NR * kc)
	apP := getPackBuf(((mc + MR - 1) / MR) * MR * kc)
	bpack, apack := *bpP, *apP

	for jc := 0; jc < n; jc += nc {
		ncCur := min(nc, n-jc)
		for pc := 0; pc < k; pc += kc {
			kcCur := min(kc, k-pc)
			PackB(bpack, b, pc, jc, kcCur, ncCur)
			for ic := 0; ic < m; ic += mc {
				mcCur := min(mc, m-ic)
				PackA(apack, a, ic, pc, mcCur, kcCur)
				for jr := 0; jr < ncCur; jr += NR {
					nr := min(NR, ncCur-jr)
					bp := bpack[(jr/NR)*NR*kcCur:]
					for ir := 0; ir < mcCur; ir += MR {
						mr := min(MR, mcCur-ir)
						ap := apack[(ir/MR)*MR*kcCur:]
						micro(kcCur, ap, bp, dst, ic+ir, jc+jr, mr, nr)
					}
				}
			}
		}
	}

	putPackBuf(apP)
	putPackBuf(bpP)
}

// MulPacked computes dst = a·b with the packed kernel.
func MulPacked(dst, a, b *matrix.Dense) {
	dst.Zero()
	GemmPacked(dst, a, b, 0, 0, 0)
}
