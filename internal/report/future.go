package report

import (
	"fmt"

	"capscale/internal/energy"
	"capscale/internal/sparse"
	"capscale/internal/task"
	"capscale/internal/workload"
)

// Renderers for the future-work studies (paper §VIII) and the
// cross-platform sweep, so the CLI and benches share one format. The
// distributed and platform studies are ordinary measured sweeps
// (workload.Execute); only the sparse storage-format study still runs
// on its own.

// DistributedStudyTable renders the distributed energy-scaling study
// from a sweep on the cluster axis: one row per completed distributed
// cell, in the matrix's order. Watts and energy cover all four
// measured planes — PKG, DRAM, NIC and switch — and speedup and the
// Eq. 5 S are taken against the cell of the same algorithm and size on
// the first cluster spec ("-" when that cell failed).
func DistributedStudyTable(mx *workload.Matrix) *Table {
	t := &Table{
		Title: "Future work — distributed energy scaling (interconnect power included)",
		Header: []string{"algorithm", "n", "cluster", "ranks", "time (s)", "watts", "energy (J)",
			"comm (MB)", "speedup", "S (Eq.5)"},
	}
	first := map[[2]int]*workload.Run{} // by algorithm and size
	for i := range mx.Runs {
		r := &mx.Runs[i]
		if r.Cluster == "" {
			continue
		}
		k := [2]int{int(r.Alg), r.N}
		if first[k] == nil {
			first[k] = r
		}
		if r.Failed() {
			continue
		}
		speedup, s := "-", "-"
		if base := first[k]; !base.Failed() {
			speedup = f2(base.Seconds / r.Seconds)
			s = f2(energy.Scaling(clusterEP(r), clusterEP(base)))
		}
		t.AddRow(r.Alg.String(), fmt.Sprint(r.N), r.Cluster, fmt.Sprint(r.Ranks),
			fmt.Sprintf("%.4f", r.Seconds), f2(clusterJoules(r)/r.Seconds),
			fmt.Sprintf("%.0f", clusterJoules(r)), f2(r.WireBytes/1e6), speedup, s)
	}
	return t
}

// clusterJoules is a distributed cell's measured energy over every
// plane: PKG and DRAM (PP0 nests inside PKG), NIC and switch.
func clusterJoules(r *workload.Run) float64 {
	return r.PKGJoules + r.DRAMJoules + r.NICJoules + r.SwitchJoules
}

// clusterEP is the Eq. 1 ratio of a distributed cell with the
// cluster-wide average power as EAvg.
func clusterEP(r *workload.Run) float64 {
	return energy.EP(clusterJoules(r)/r.Seconds, r.Seconds)
}

// SparseStudyTable renders a storage-format energy study.
func SparseStudyTable(points []sparse.StudyPoint) *Table {
	t := &Table{
		Title:  "Future work — SpMV storage-format energy scaling",
		Header: []string{"format", "threads", "time (s)", "watts", "EP (Eq.1)", "traffic (MB)"},
	}
	for _, p := range points {
		t.AddRow(p.Format.String(), fmt.Sprint(p.Threads),
			fmt.Sprintf("%.4f", p.Seconds), f2(p.Watts), f2(p.EP), f2(p.BytesMB))
	}
	return t
}

// PlatformTable renders the cross-platform sweep: one matrix per
// machine (workload.PlatformConfig), one row per cell, each with its
// machine's Eq. 9 Strassen crossover.
func PlatformTable(mxs []*workload.Matrix) *Table {
	t := &Table{
		Title:  "Cross-platform sweep (full threads per machine)",
		Header: []string{"machine", "algorithm", "time (s)", "watts", "EP", "EDP (J·s)", "Eq.9 crossover"},
	}
	for _, mx := range mxs {
		m := mx.Cfg.Machine
		crossover := fmt.Sprintf("%.0f", energy.CrossoverForMachine(m.PeakFlops()*m.Eff(task.KindGEMM), m.DRAMBandwidth))
		for i := range mx.Runs {
			r := &mx.Runs[i]
			t.AddRow(m.Name, r.Alg.String(),
				fmt.Sprintf("%.4f", r.Seconds), f2(r.WattsTotal()), f2(r.EP()),
				f2(energy.EDP(r.PKGJoules+r.DRAMJoules, r.Seconds)), crossover)
		}
	}
	return t
}
