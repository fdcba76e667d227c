package report

import (
	"fmt"

	"capscale/internal/cluster"
	"capscale/internal/dmm"
	"capscale/internal/energy"
	"capscale/internal/workload"
)

// CommTable plots each distributed run's measured wire traffic against
// the communication lower bound for its algorithm family: Eq. 8
// (Ballard et al., ω₀ = log₂7) for the Strassen-like algorithms, the
// classic Ballard–Demmel bound for SUMMA and 2.5D. Both bounds and the
// measured column are in words per rank, with M = the cluster's
// per-node memory in words — so the Ratio column reads directly as
// "how far above optimal", and communication-avoiding algorithms show
// a small constant while bandwidth-wasteful ones drift up with P.
func CommTable(mx *workload.Matrix) *Table {
	t := &Table{
		Title: "Communication volume vs. lower bound (words per rank; Eq. 8 for Strassen-like, Ballard-Demmel for classic)",
		Header: []string{"Alg", "Cluster", "P", "c", "n",
			"Wire MB", "Msgs", "Words/rank", "Bound", "Ratio", "Crit α", "Comm s"},
	}
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Cluster == "" || r.Failed() {
			continue
		}
		spec, err := cluster.ParseSpec(r.Cluster)
		if err != nil {
			continue // a hand-edited saved matrix; nothing to bound against
		}
		// Ratio is meaningful only when the run put traffic on the wire
		// (a one-rank fit, or a size below the node-local cutoff, is a
		// purely local computation the distributed-data bounds do not
		// constrain).
		bound, ratio := "-", "-"
		if r.Ranks > 1 && r.WireBytes > 0 {
			b := CommLowerBound(r.Alg, r.N, r.Ranks, spec.MemPerNode/8)
			bound = fmt.Sprintf("%.4g", b)
			ratio = f2(CommWordsPerRank(r) / b)
		}
		t.AddRow(
			r.Alg.String(), r.Cluster,
			fmt.Sprintf("%d", r.Ranks), fmt.Sprintf("%d", r.Replication),
			fmt.Sprintf("%d", r.N),
			f2(r.WireBytes/1e6), fmt.Sprintf("%d", r.Messages),
			fmt.Sprintf("%.4g", CommWordsPerRank(r)),
			bound, ratio,
			fmt.Sprintf("%d", r.CritAlphaTerms), f3(r.CritCommSeconds),
		)
	}
	return t
}

// CommWordsPerRank converts a distributed run's measured wire bytes to
// the bound's unit: 8-byte words moved per rank.
func CommWordsPerRank(r *workload.Run) float64 {
	if r.Ranks <= 0 {
		return 0
	}
	return r.WireBytes / 8 / float64(r.Ranks)
}

// CommLowerBound selects the family-matching bound for one run's
// coordinates: Eq. 8 for the Strassen-like algorithms (recomputation
// lowers their exponent to ω₀), the classic bound otherwise. memWords
// is the per-node memory in 8-byte words.
func CommLowerBound(alg workload.Algorithm, n, p int, memWords float64) float64 {
	switch alg {
	case workload.AlgDStrassen, workload.AlgDistCAPS:
		return energy.CommBound(float64(n), float64(p), memWords)
	default:
		return dmm.ClassicLowerBound(n, p, memWords)
	}
}
