// Package dmm implements distributed-memory matrix multiplication on
// the simulated cluster: the SUMMA 2-D algorithm as the classic
// baseline and a distributed CAPS following Ballard et al.'s BFS
// recursion over 7^k processor groups. This is the paper's Section
// VIII future work — the same energy-performance scaling methodology
// with interconnect transfer power included.
//
// Rank programs model communication exactly (every message goes
// through the mpi layer) and local arithmetic by operation counts
// (flops/DRAM traffic through the node cost model); the shared-memory
// packages validate the numerics, this package scales the energy
// accounting out.
package dmm

import (
	"fmt"
	"math"

	"capscale/internal/kernel"
	"capscale/internal/mpi"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// tag bases; each round offsets from these so concurrent phases don't
// collide.
const (
	tagSummaA = 1000
	tagSummaB = 2000
	tagCAPSDn = 3000
	tagCAPSUp = 4000
)

// SUMMA returns the rank program for an n×n multiply on a √P×√P
// process grid. Each of the √P panel rounds broadcasts an A block
// along the row and a B block down the column, then multiplies
// locally. It panics (inside the ranks) unless the communicator size
// is a perfect square dividing n.
func SUMMA(n int) func(*mpi.Rank) {
	return func(r *mpi.Rank) {
		p := r.Size()
		q := int(math.Round(math.Sqrt(float64(p))))
		if q*q != p {
			panic(fmt.Sprintf("dmm: SUMMA needs a square rank count, got %d", p))
		}
		if n%q != 0 {
			panic(fmt.Sprintf("dmm: SUMMA block size %d/%d not integral", n, q))
		}
		row, col := r.ID()/q, r.ID()%q
		bn := n / q
		blockBytes := kernel.Bytes(bn, bn)

		for k := 0; k < q; k++ {
			// Row broadcast of A(row, k) from the column-k owner.
			if col == k {
				for j := 0; j < q; j++ {
					if j != col {
						r.Send(row*q+j, tagSummaA+k, blockBytes)
					}
				}
			} else {
				r.Recv(row*q+k, tagSummaA+k)
			}
			// Column broadcast of B(k, col) from the row-k owner.
			if row == k {
				for i := 0; i < q; i++ {
					if i != row {
						r.Send(i*q+col, tagSummaB+k, blockBytes)
					}
				}
			} else {
				r.Recv(k*q+col, tagSummaB+k)
			}
			// Local rank-bn update C += A_blk · B_blk.
			r.Compute(mpi.ComputeWork{
				Kind:      task.KindGEMM,
				Flops:     kernel.MulFlops(bn, bn, bn),
				DRAMBytes: 3 * blockBytes,
			})
		}
	}
}

// CAPS returns the rank program for distributed CAPS on P = 7^k ranks:
// k BFS steps, each exchanging operand shares among the seven
// counterpart subgroups (the factor-7/4 memory blowup and the Eq. 8
// communication pattern), then a local Strassen solve, then the mirror
// recombination exchanges on the way back up.
func CAPS(n, cutover int) func(*mpi.Rank) {
	if cutover <= 0 {
		cutover = strassen.DefaultCutover
	}
	return func(r *mpi.Rank) {
		p := r.Size()
		levels := 0
		for v := p; v > 1; v /= 7 {
			if v%7 != 0 {
				panic(fmt.Sprintf("dmm: CAPS needs 7^k ranks, got %d", p))
			}
			levels++
		}

		var rec func(groupStart, groupSize, curN, depth int)
		rec = func(groupStart, groupSize, curN, depth int) {
			if groupSize == 1 {
				// Local sequential Strassen on the owned subproblem:
				// the base multiplies and the level additions cost
				// different kernel classes.
				localStrassen(r, curN, cutover, 1)
				return
			}
			sub := groupSize / 7
			rel := r.ID() - groupStart
			myGroup := rel / sub
			posInSub := rel % sub

			// Operand sums for the seven subproblems, work-shared over
			// the group: 10 additions on (curN/2)² elements.
			half := curN / 2
			addElems := 10 * float64(half) * float64(half) / float64(groupSize)
			r.Compute(mpi.ComputeWork{
				Kind:      task.KindAdd,
				Flops:     addElems,
				DRAMBytes: 3 * 8 * addElems,
				Cores:     0,
			})

			// BFS down-exchange: redistribute operand shares so each
			// subgroup holds its subproblem's inputs. A rank's local
			// piece of one subproblem's (S_j, T_j) combination is
			// 2·(curN/2)²/groupSize words; it keeps its own group's
			// piece and ships each of the other six to that group's
			// counterpart — the 7/4 memory blowup per level.
			share := 2 * kernel.Bytes(half, half) / float64(groupSize) // one subproblem's A and B pieces
			for j := 0; j < 7; j++ {
				if j == myGroup {
					continue
				}
				peer := groupStart + j*sub + posInSub
				r.Send(peer, tagCAPSDn+depth, share)
			}
			for j := 0; j < 7; j++ {
				if j == myGroup {
					continue
				}
				peer := groupStart + j*sub + posInSub
				r.Recv(peer, tagCAPSDn+depth)
			}

			rec(groupStart+myGroup*sub, sub, half, depth+1)

			// BFS up-exchange: scatter the subgroup's product back so
			// every rank holds its 1/groupSize share of all seven
			// products for the recombination, then the 8 recombination
			// additions. The per-counterpart piece mirrors the
			// down-exchange: (curN/2)²/groupSize words each.
			shareC := kernel.Bytes(half, half) / float64(groupSize)
			for j := 0; j < 7; j++ {
				if j == myGroup {
					continue
				}
				peer := groupStart + j*sub + posInSub
				r.Send(peer, tagCAPSUp+depth, shareC)
			}
			for j := 0; j < 7; j++ {
				if j == myGroup {
					continue
				}
				peer := groupStart + j*sub + posInSub
				r.Recv(peer, tagCAPSUp+depth)
			}
			recombElems := 8 * float64(half) * float64(half) / float64(groupSize)
			r.Compute(mpi.ComputeWork{
				Kind:      task.KindAdd,
				Flops:     recombElems,
				DRAMBytes: 3 * 8 * recombElems,
				Cores:     0,
			})
		}
		rec(0, p, n, 0)
	}
}

// localStrassen charges the closed-form local Strassen arithmetic of
// one curN×curN subproblem, split across `share` ranks: multiplies at
// the dense-solver class, additions at the bandwidth-bound class.
func localStrassen(r *mpi.Rank, curN, cutover, share int) {
	mulFlops := strassen.MulFlopsTotal(curN, cutover) / float64(share)
	addFlops := strassen.AddFlopsTotal(curN, cutover, false) / float64(share)
	r.Compute(mpi.ComputeWork{
		Kind:      task.KindBaseMul,
		Flops:     mulFlops,
		DRAMBytes: 3 * kernel.Bytes(curN, curN) / float64(share),
		Cores:     0,
	})
	if addFlops > 0 {
		r.Compute(mpi.ComputeWork{
			Kind:      task.KindAdd,
			Flops:     addFlops,
			DRAMBytes: 3 * 8 * addFlops,
			Cores:     0,
		})
	}
}
