package dmm

import (
	"fmt"
	"math"

	"capscale/internal/kernel"
	"capscale/internal/mpi"
	"capscale/internal/task"
)

// 2.5D matrix multiplication (Solomonik & Demmel, the paper's ref
// [16]): P = c·q² ranks in a q×q×c grid trade a factor-c memory
// replication of A and B for a 1/√c reduction in communication — the
// classic-multiplication counterpart of CAPS's communication
// avoidance. With c = 1 it degenerates to SUMMA.

const (
	tag25Repl   = 5000
	tag25A      = 6000
	tag25B      = 7000
	tag25Reduce = 8000
)

// TwoPointFiveD returns the rank program for an n×n multiply with
// replication factor c on P = c·q² ranks. It panics (in the ranks)
// unless P/c is a perfect square, c divides q, and q divides n.
func TwoPointFiveD(n, c int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		p := r.Size()
		if c < 1 || p%c != 0 {
			panic(fmt.Sprintf("dmm: 2.5D replication %d does not divide %d ranks", c, p))
		}
		q := int(math.Round(math.Sqrt(float64(p / c))))
		if q*q*c != p {
			panic(fmt.Sprintf("dmm: 2.5D needs c·q² ranks, got %d with c=%d", p, c))
		}
		if q%c != 0 {
			panic(fmt.Sprintf("dmm: 2.5D needs c (%d) to divide q (%d)", c, q))
		}
		if n%q != 0 {
			panic(fmt.Sprintf("dmm: 2.5D block size %d/%d not integral", n, q))
		}

		layer := r.ID() / (q * q)
		within := r.ID() % (q * q)
		row, col := within/q, within%q
		bn := n / q
		blockBytes := kernel.Bytes(bn, bn)
		rankAt := func(l, i, j int) int { return l*q*q + i*q + j }

		// Phase 1 — replication: layer 0 owners fan their A and B
		// blocks out to the other layers.
		if c > 1 {
			if layer == 0 {
				for l := 1; l < c; l++ {
					r.Send(rankAt(l, row, col), tag25Repl, 2*blockBytes)
				}
			} else {
				r.Recv(rankAt(0, row, col), tag25Repl)
			}
		}

		// Phase 2 — each layer runs its q/c SUMMA rounds.
		lo := layer * q / c
		hi := lo + q/c
		for k := lo; k < hi; k++ {
			if col == k {
				for j := 0; j < q; j++ {
					if j != col {
						r.Send(rankAt(layer, row, j), tag25A+k, blockBytes)
					}
				}
			} else {
				r.Recv(rankAt(layer, row, k), tag25A+k)
			}
			if row == k {
				for i := 0; i < q; i++ {
					if i != row {
						r.Send(rankAt(layer, i, col), tag25B+k, blockBytes)
					}
				}
			} else {
				r.Recv(rankAt(layer, k, col), tag25B+k)
			}
			r.Compute(mpi.ComputeWork{
				Kind:      task.KindGEMM,
				Flops:     kernel.MulFlops(bn, bn, bn),
				DRAMBytes: 3 * blockBytes,
			})
		}

		// Phase 3 — reduce the c partial C blocks onto layer 0.
		if c > 1 {
			if layer == 0 {
				for l := 1; l < c; l++ {
					r.Recv(rankAt(l, row, col), tag25Reduce)
					// Combine the received partial block.
					r.Compute(mpi.ComputeWork{
						Kind:      task.KindAdd,
						Flops:     float64(bn) * float64(bn),
						DRAMBytes: 3 * blockBytes,
						Cores:     1,
					})
				}
			} else {
				r.Send(rankAt(0, row, col), tag25Reduce, blockBytes)
			}
		}
	}
}
