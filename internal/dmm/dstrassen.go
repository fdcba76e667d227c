package dmm

import (
	"capscale/internal/kernel"
	"capscale/internal/mpi"
	"capscale/internal/strassen"
	"capscale/internal/task"
)

// Distributed classic Strassen — the non-communication-avoiding
// baseline mirroring the paper's shared-memory comparison: a pure
// depth-first traversal in which ALL ranks cooperate on each of the
// seven subproblems in sequence, fully redistributing the operand
// shares at every level the data still spans the machine. Once a
// subproblem is small enough to be node-local (below localCutoff) the
// remaining recursion is pure local arithmetic, charged in closed
// form. Same multiply flops as distributed CAPS; communication grows
// with the traversal instead of shrinking per owner subgroup.

const tagDStrassen = 9000

// localCutoff is the dimension below which a DFS subproblem's operands
// are node-local and recursion stops communicating.
const localCutoff = 512

// Strassen returns the rank program for distributed classic Strassen
// on any rank count (ranks work-share every level).
func Strassen(n, cutover int) func(*mpi.Rank) {
	if cutover <= 0 {
		cutover = strassen.DefaultCutover
	}
	return func(r *mpi.Rank) {
		p := r.Size()
		var rec func(curN, depth int)
		rec = func(curN, depth int) {
			if curN <= cutover || curN <= localCutoff || curN%2 != 0 {
				// Node-local remainder of the recursion, work-shared:
				// each rank computes its 1/p of the closed-form flops.
				localStrassen(r, curN, cutover, p)
				return
			}
			half := curN / 2
			// Work-shared operand sums for the level (18 add-ops on
			// (n/2)² elements, paper Eq. 7 counting).
			elems := 18 * float64(half) * float64(half) / float64(p)
			r.Compute(mpi.ComputeWork{
				Kind:      task.KindAdd,
				Flops:     elems,
				DRAMBytes: 3 * 8 * elems,
				Cores:     0,
			})
			// Full redistribution for the level: every rank exchanges
			// its share of all seven subproblems' operands with every
			// other rank (the DFS pattern of the paper's Fig. 2),
			// aggregated into one exchange per peer.
			if p > 1 {
				level := 7 * 2 * kernel.Bytes(half, half) / float64(p) // 7 subproblems × (A,B) shares
				r.Alltoall(tagDStrassen+depth, level/float64(p))
			}
			for q := 0; q < 7; q++ {
				rec(half, depth+1)
			}
		}
		rec(n, 0)
	}
}
