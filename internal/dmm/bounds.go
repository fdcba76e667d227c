package dmm

import (
	"fmt"
	"math"
)

// Communication lower bound for classic distributed matrix
// multiplication (Ballard–Demmel / Irony–Toledo–Tiskin), in words
// (matrix elements) moved per processor:
//
//	max( n³/(P·√M), n²/P^(2/3) )
//
// the maximum of a memory-dependent term — binding when the per-node
// memory M is scarce — and a memory-independent term that no amount
// of replication can beat. The Strassen-like counterpart is the
// paper's Eq. 8, energy.CommBound. An algorithm's measured wire
// traffic, divided by P, lands above the matching bound;
// communication-optimal algorithms land within a constant factor of
// it (report.CommTable shows the ratio, and the tier-1 repro gate
// asserts it).

// ClassicLowerBound returns the classic-multiplication bound in words
// per processor for an n×n multiply on P ranks with M words of memory
// per node.
func ClassicLowerBound(n, p int, memWords float64) float64 {
	if n <= 0 || p <= 0 || memWords <= 0 {
		panic(fmt.Sprintf("dmm: bad bound arguments n=%d P=%d M=%g", n, p, memWords))
	}
	nf, pf := float64(n), float64(p)
	memTerm := nf * nf * nf / (pf * math.Sqrt(memWords))
	indep := nf * nf / math.Pow(pf, 2.0/3.0)
	return math.Max(memTerm, indep)
}

// Rank-count fitting: each algorithm has structural constraints on the
// communicator size, so a cluster of `nodes` nodes runs it on the
// largest rank count the constraints admit. Fit* return an error when
// not even one usable rank count exists.

// FitSUMMA returns the largest square rank count q² ≤ nodes whose grid
// dimension divides n.
func FitSUMMA(n, nodes int) (int, error) {
	for q := int(math.Sqrt(float64(nodes))); q >= 1; q-- {
		if n%q == 0 {
			return q * q, nil
		}
	}
	return 0, fmt.Errorf("dmm: no SUMMA grid fits n=%d on %d nodes", n, nodes)
}

// Fit25D returns the rank count c·q² ≤ nodes and the largest
// replication factor c whose replicated operands (3c·n²/P words of 8
// bytes per node) still fit in memBytes. With c = 1 it degenerates to
// the SUMMA grid.
func Fit25D(n, nodes int, memBytes float64) (ranks, c int, err error) {
	best, bestC := 0, 0
	for cc := 1; cc <= nodes; cc++ {
		q := int(math.Sqrt(float64(nodes / cc)))
		for ; q >= 1; q-- {
			if q%cc != 0 || n%q != 0 {
				continue
			}
			p := cc * q * q
			if memBytes > 0 && 3*8*float64(cc)*float64(n)*float64(n)/float64(p) > memBytes {
				continue
			}
			// Prefer more total ranks; at equal ranks prefer the higher
			// replication (less communication).
			if p > best || (p == best && cc > bestC) {
				best, bestC = p, cc
			}
			break
		}
	}
	if best == 0 {
		return 0, 0, fmt.Errorf("dmm: no 2.5D grid fits n=%d on %d nodes", n, nodes)
	}
	return best, bestC, nil
}

// FitCAPS returns the largest 7^k ≤ nodes whose k BFS halvings keep
// the block dimension integral (2^k divides n). k = 0 — one rank,
// purely local — always fits.
func FitCAPS(n, nodes int) int {
	ranks, levels := 1, 0
	for ranks*7 <= nodes && n%(1<<(levels+1)) == 0 {
		ranks *= 7
		levels++
	}
	return ranks
}
