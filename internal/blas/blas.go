// Package blas implements the paper's baseline: a tuned, blocked,
// multi-threaded double-precision matrix multiplication in the style of
// OpenBLAS/Goto (Algorithm 1 in the paper).
//
// The multiply is expressed as a task tree (internal/task). Loop order
// follows Goto's three-level blocking: a KC×NC panel of B is packed
// into the shared cache once per K-step, then MC×KC blocks of A stream
// through it, with the M dimension statically partitioned across
// threads exactly as OpenBLAS's OpenMP work split does. Leaves carry
// both the real arithmetic (optional) and the flop/traffic accounting
// the simulator charges.
package blas

import (
	"fmt"

	"capscale/internal/hw"
	"capscale/internal/kernel"
	"capscale/internal/matrix"
	"capscale/internal/task"
)

// Plan holds the cache-blocking factors.
type Plan struct {
	// MC×KC blocks of A are sized for a worker's L2 share; KC×NC panels
	// of B for half the shared L3.
	MC, KC, NC int
}

// PlanFor derives blocking factors for an M×K · K×N multiply on the
// given machine, the way OpenBLAS's genetic parameter headers encode
// them per microarchitecture.
func PlanFor(m *hw.Machine, M, K, N int) Plan {
	nc := N // our N values keep B panels narrower than L3 allows

	// KC: a KC×NC panel of B should occupy at most half the L3.
	kc := m.L3.SizeBytes / 2 / 8 / nc
	kc = clamp(kc, 16, 256)
	if kc > K {
		kc = K
	}

	// MC: an MC×KC block of A should occupy at most half the L2.
	mc := m.L2.SizeBytes / 2 / 8 / kc
	mc = clamp(mc, 16, 256)
	if mc > M {
		mc = M
	}
	return Plan{MC: mc, KC: kc, NC: nc}
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// Options configures tree construction.
type Options struct {
	// Workers is the thread count the M dimension is partitioned over
	// (OMP_NUM_THREADS). It must be >= 1.
	Workers int
	// Plan overrides the automatic blocking when non-zero.
	Plan Plan
	// WithMath attaches real-arithmetic closures to the leaves so the
	// tree can be executed for correctness checking or live runs.
	WithMath bool
}

// Build returns the task tree computing c = a·b. Shapes must conform;
// c must not alias a or b.
func Build(m *hw.Machine, c, a, b *matrix.Dense, opt Options) *task.Node {
	M, K, N := a.Rows(), a.Cols(), b.Cols()
	if b.Rows() != K || c.Rows() != M || c.Cols() != N {
		panic(fmt.Sprintf("blas: shapes %dx%d * %dx%d -> %dx%d", M, K, b.Rows(), N, c.Rows(), c.Cols()))
	}
	if opt.Workers < 1 {
		panic(fmt.Sprintf("blas: workers %d", opt.Workers))
	}
	plan := opt.Plan
	if plan.MC == 0 {
		plan = PlanFor(m, M, K, N)
	}

	var ar task.Arena
	if opt.WithMath {
		c.Zero()
	}

	// Region per (ic, jc) C block: the same block is revisited on every
	// K step, and static partitioning keeps it on one worker.
	nIC := ceilDiv(M, plan.MC)
	nJC := ceilDiv(N, plan.NC)
	cRegion := make([]task.RegionID, nIC*nJC)
	for i := range cRegion {
		cRegion[i] = ar.New()
	}

	var stages []task.Ref
	for jc := 0; jc < N; jc += plan.NC {
		ncCur := min(plan.NC, N-jc)
		for kc := 0; kc < K; kc += plan.KC {
			kcCur := min(plan.KC, K-kc)
			stages = append(stages,
				packStage(&ar, b, jc, kc, ncCur, kcCur, opt),
				computeStage(&ar, c, a, b, plan, jc, kc, ncCur, kcCur, cRegion, nJC, opt))
		}
	}
	return ar.Node(ar.Seq(stages...))
}

// packStage models packing the KC×NC panel of B into the shared cache,
// split across workers by row chunks as OpenBLAS does.
func packStage(ar *task.Arena, b *matrix.Dense, jc, kc, nc, kcCur int, opt Options) task.Ref {
	chunks := opt.Workers
	if chunks > kcCur {
		chunks = kcCur
	}
	leaves := make([]task.Ref, 0, chunks)
	for t := 0; t < chunks; t++ {
		lo := kcCur * t / chunks
		hi := kcCur * (t + 1) / chunks
		rows := hi - lo
		if rows == 0 {
			continue
		}
		leaves = append(leaves, ar.Leaf(task.Work{
			Label: fmt.Sprintf("packB k%d j%d t%d", kc, jc, t),
			Kind:  task.KindCopy,
			// Read the panel rows from DRAM, deposit them in L3.
			DRAMBytes: kernel.Bytes(rows, nc),
			L3Bytes:   kernel.Bytes(rows, nc),
		}))
	}
	return ar.Par(leaves...)
}

// computeStage is the M-partitioned rank-KC update of the C panel.
func computeStage(ar *task.Arena, c, a, b *matrix.Dense, plan Plan, jc, kc, nc, kcCur int, cRegion []task.RegionID, nJC int, opt Options) task.Ref {
	M := a.Rows()
	type icBlock struct {
		ic, mc int
	}
	var blocks []icBlock
	for ic := 0; ic < M; ic += plan.MC {
		blocks = append(blocks, icBlock{ic, min(plan.MC, M-ic)})
	}

	// Static partition of ic blocks over workers, each worker's chain
	// pinned to its core — OpenBLAS threads own fixed row bands.
	chains := make([]task.Ref, 0, opt.Workers)
	for t := 0; t < opt.Workers; t++ {
		var chain []task.Ref
		for bi := t; bi < len(blocks); bi += opt.Workers {
			blk := blocks[bi]
			w := task.Work{
				Label: fmt.Sprintf("gemm i%d k%d j%d", blk.ic, kc, jc),
				Kind:  task.KindGEMM,
				Flops: kernel.MulFlops(blk.mc, nc, kcCur),
				// A block streams from DRAM; the packed B panel is
				// served by the shared cache; the C block is read and
				// written through DRAM on every K step.
				DRAMBytes:   kernel.Bytes(blk.mc, kcCur) + 2*kernel.Bytes(blk.mc, nc),
				L3Bytes:     kernel.Bytes(kcCur, nc),
				Reads:       []task.RegionID{cRegion[(blk.ic/plan.MC)*nJC+jc/plan.NC]},
				Writes:      []task.RegionID{cRegion[(blk.ic/plan.MC)*nJC+jc/plan.NC]},
				RegionBytes: kernel.Bytes(blk.mc, nc),
			}
			if opt.WithMath {
				cBlk := c.View(blk.ic, jc, blk.mc, nc)
				aBlk := a.View(blk.ic, kc, blk.mc, kcCur)
				bBlk := b.View(kc, jc, kcCur, nc)
				mc, kcP, ncP := plan.MC, plan.KC, plan.NC
				w.Run = func() { kernel.GemmPacked(cBlk, aBlk, bBlk, mc, kcP, ncP) }
			}
			chain = append(chain, ar.Leaf(w))
		}
		if len(chain) > 0 {
			chains = append(chains, ar.WithAffinityMask(ar.Seq(chain...), task.SingleWorker(t)))
		}
	}
	return ar.Par(chains...)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
