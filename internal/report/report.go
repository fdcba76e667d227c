package report

import (
	"fmt"
	"strings"

	"capscale/internal/energy"
	"capscale/internal/stats"
	"capscale/internal/workload"
)

// Table2 renders the paper's Table II — average Strassen and CAPS
// slowdown versus OpenBLAS per problem size — with the published
// values alongside.
func Table2(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Table II — Average Strassen slowdown at problem size N",
		Header: []string{"algorithm", "N", "measured", "paper", "rel.err"},
	}
	for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
		total := 0.0
		for _, n := range mx.Cfg.Sizes {
			got := mx.AvgSlowdownAtSize(alg, n)
			total += got
			paper, ok := PaperTable2[alg][n]
			if ok {
				t.AddRow(alg.String(), fmt.Sprint(n), f3(got), f3(paper), pct(stats.RelErr(got, paper)))
			} else {
				t.AddRow(alg.String(), fmt.Sprint(n), f3(got), "-", "-")
			}
		}
		avg := total / float64(len(mx.Cfg.Sizes))
		if paper, ok := PaperTable2Avg[alg]; ok {
			t.AddRow(alg.String(), "avg", f3(avg), f3(paper), pct(stats.RelErr(avg, paper)))
		}
	}
	return t
}

// Table3 renders the paper's Table III — average watts per thread
// count — with the published values alongside.
func Table3(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Table III — Average power (W) at thread count",
		Header: []string{"algorithm", "threads", "measured", "paper", "rel.err"},
	}
	for _, alg := range nodeAlgorithms(mx) {
		total := 0.0
		for _, p := range mx.Cfg.Threads {
			got := mx.AvgPowerAtThreads(alg, p)
			total += got
			if paper, ok := PaperTable3[alg][p]; ok {
				t.AddRow(alg.String(), fmt.Sprint(p), f2(got), f2(paper), pct(stats.RelErr(got, paper)))
			} else {
				t.AddRow(alg.String(), fmt.Sprint(p), f2(got), "-", "-")
			}
		}
		avg := total / float64(len(mx.Cfg.Threads))
		if paper, ok := PaperTable3Avg[alg]; ok {
			t.AddRow(alg.String(), "avg", f2(avg), f2(paper), pct(stats.RelErr(avg, paper)))
		}
	}
	return t
}

// Table4 renders the paper's Table IV — average energy performance
// (EP = EAvg/T) per problem size.
func Table4(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Table IV — Average energy performance at problem size N",
		Header: []string{"algorithm", "N", "measured", "paper", "rel.err"},
	}
	for _, alg := range nodeAlgorithms(mx) {
		for _, n := range mx.Cfg.Sizes {
			got := mx.AvgEPAtSize(alg, n)
			if paper, ok := PaperTable4[alg][n]; ok {
				t.AddRow(alg.String(), fmt.Sprint(n), f2(got), f2(paper), pct(stats.RelErr(got, paper)))
			} else {
				t.AddRow(alg.String(), fmt.Sprint(n), f2(got), "-", "-")
			}
		}
	}
	return t
}

// Figure1 renders the conceptual ideal/superlinear chart of Fig. 1 as
// a series table: the linear threshold plus an example of each class.
func Figure1(maxP int) *Table {
	t := &Table{
		Title:  "Figure 1 — Ideal vs. superlinear energy performance scaling (conceptual)",
		Header: []string{"P", "linear threshold", "ideal example", "superlinear example"},
	}
	for p := 1; p <= maxP; p++ {
		fp := float64(p)
		t.AddRow(fmt.Sprint(p),
			f3(energy.LinearThreshold(p)),
			f3(1+(fp-1)*0.72), // power tracks under speedup
			f3(fp*fp*0.95+0.05))
	}
	return t
}

// Figure3 renders the Strassen/CAPS slowdown series per configuration
// (the scatter the paper plots in Fig. 3).
func Figure3(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Figure 3 — Strassen slowdown scaling (T_alg / T_OpenBLAS)",
		Header: []string{"N", "threads", "Strassen", "CAPS"},
	}
	for _, n := range mx.Cfg.Sizes {
		for _, p := range mx.Cfg.Threads {
			t.AddRow(fmt.Sprint(n), fmt.Sprint(p),
				f3(mx.Slowdown(workload.AlgStrassen, n, p)),
				f3(mx.Slowdown(workload.AlgCAPS, n, p)))
		}
	}
	return t
}

// PowerScalingFigure renders one algorithm's power-vs-threads series
// per problem size (Figs. 4, 5 and 6 for OpenBLAS, Strassen and CAPS).
func PowerScalingFigure(mx *workload.Matrix, alg workload.Algorithm, figNo int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Figure %d — %s power scaling (W)", figNo, alg),
		Header: append([]string{"threads"}, sizeHeaders(mx)...),
	}
	for _, p := range mx.Cfg.Threads {
		row := []string{fmt.Sprint(p)}
		for _, n := range mx.Cfg.Sizes {
			row = append(row, f2(mx.Get(alg, n, p).WattsTotal()))
		}
		t.AddRow(row...)
	}
	return t
}

// Figure7 renders the energy-performance scaling series (Eq. 5) of
// every algorithm and size, with the linear threshold and each
// series' classification.
func Figure7(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Figure 7 — Energy performance scaling S = EP_p / EP_1",
		Header: []string{"algorithm", "N", "series (P:S)", "class", "mean |S-P|"},
	}
	for _, alg := range nodeAlgorithms(mx) {
		for _, n := range mx.Cfg.Sizes {
			s := mx.ScalingSeries(alg, n)
			var points []string
			for i := range s.P {
				points = append(points, fmt.Sprintf("%d:%.2f", s.P[i], s.S[i]))
			}
			t.AddRow(alg.String(), fmt.Sprint(n),
				strings.Join(points, " "),
				s.WorstClass().String(),
				f3(s.MeanDistanceToLinear()))
		}
	}
	return t
}

// MeasurementTable reconciles the polled monitor's measured energy
// against the device's ground-truth accumulators for every run in the
// matrix: the numbers all downstream tables (EP, scaling, power) are
// computed from, versus what the hardware actually dissipated. A run
// whose relative error strays past float-accumulation noise — or whose
// sample count is suspiciously low — indicates undersampling and
// possible 32-bit counter wrap loss. Matrices loaded from JSON saved
// before the measurement loop was closed carry no truth columns and
// render as "-".
func MeasurementTable(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Measurement reconciliation — monitor vs. RAPL ground truth",
		Header: []string{"algorithm", "N", "threads", "measured J", "truth J", "max rel.err", "samples", "flags"},
	}
	for i := range mx.Runs {
		r := &mx.Runs[i]
		meas := r.PKGJoules + r.DRAMJoules
		truth := r.TruthPKGJoules + r.TruthDRAMJoules
		if r.Failed() {
			t.AddRow(r.Alg.String(), fmt.Sprint(r.N), fmt.Sprint(r.Threads),
				"-", "-", "-", "-", "FAILED: "+r.Err)
			continue
		}
		if truth == 0 && r.MeasSamples == 0 {
			t.AddRow(r.Alg.String(), fmt.Sprint(r.N), fmt.Sprint(r.Threads),
				f2(meas), "-", "-", "-", runFlags(r))
			continue
		}
		t.AddRow(r.Alg.String(), fmt.Sprint(r.N), fmt.Sprint(r.Threads),
			f2(meas), f2(truth), fmt.Sprintf("%.2e", r.MeasurementErr()),
			fmt.Sprint(r.MeasSamples), runFlags(r))
	}
	return t
}

// runFlags summarizes a completed run's degradation state for the
// reconciliation table: "ok" for clean measurements, otherwise the
// degradation facts a reader needs before trusting the row.
func runFlags(r *workload.Run) string {
	if !r.Degraded {
		return "ok"
	}
	parts := []string{"DEGRADED"}
	if len(r.QuarantinedPlanes) > 0 {
		parts = append(parts, "quarantined "+strings.Join(r.QuarantinedPlanes, "+"))
	}
	if r.MeasReadErrors > 0 {
		parts = append(parts, fmt.Sprintf("%d read errors", r.MeasReadErrors))
	}
	if r.MeasDrops > 0 {
		parts = append(parts, fmt.Sprintf("%d drops", r.MeasDrops))
	}
	return strings.Join(parts, ", ")
}

// BreakdownTable decomposes each algorithm's busy time by kernel class
// at one configuration — where the cycles (and therefore the dynamic
// energy) go.
func BreakdownTable(mx *workload.Matrix, n, threads int) *Table {
	t := &Table{
		Title:  fmt.Sprintf("Busy-time breakdown at N=%d, %d threads (seconds)", n, threads),
		Header: []string{"algorithm", "gemm", "basemul", "add", "copy", "total busy"},
	}
	for _, alg := range nodeAlgorithms(mx) {
		r := mx.Get(alg, n, threads)
		if r == nil {
			continue
		}
		total := 0.0
		for _, v := range r.BusyByKind {
			total += v
		}
		cell := func(kind string) string {
			v := r.BusyByKind[kind]
			if v == 0 {
				return "-"
			}
			return fmt.Sprintf("%.4f", v)
		}
		t.AddRow(alg.String(), cell("gemm"), cell("basemul"), cell("add"), cell("copy"),
			fmt.Sprintf("%.4f", total))
	}
	return t
}

// Headlines summarizes the paper's scalar claims against the measured
// matrix: slowdown averages, the CAPS-vs-Strassen performance and
// power margins, and the OpenBLAS power envelope.
func Headlines(mx *workload.Matrix) *Table {
	t := &Table{
		Title:  "Headline comparisons",
		Header: []string{"claim", "measured", "paper"},
	}
	strAvg := avgSlowdown(mx, workload.AlgStrassen)
	capsAvg := avgSlowdown(mx, workload.AlgCAPS)
	t.AddRow("Strassen avg slowdown", f3(strAvg), f3(PaperHeadlines.StrassenAvgSlowdown))
	t.AddRow("CAPS avg slowdown", f3(capsAvg), f3(PaperHeadlines.CAPSAvgSlowdown))
	t.AddRow("CAPS perf gain vs Strassen", pct(strAvg/capsAvg-1), pct(PaperHeadlines.CAPSPerfGain))

	strP := avgPower(mx, workload.AlgStrassen)
	capsP := avgPower(mx, workload.AlgCAPS)
	t.AddRow("CAPS avg power vs Strassen", pct(capsP/strP-1), pct(-PaperHeadlines.CAPSPowerGain))

	lo, hi := openBLASPowerEnvelope(mx)
	t.AddRow("OpenBLAS min watts", f2(lo), f2(PaperHeadlines.MinOpenBLASWatts))
	t.AddRow("OpenBLAS max watts", f2(hi), f2(PaperHeadlines.MaxOpenBLASWatts))

	// Not a paper claim, but the precondition for all of the above: the
	// measured energy the tables are computed from must agree with the
	// device's ground truth (the paper trusts PAPI the same way).
	t.AddRow("Max measurement rel.err", fmt.Sprintf("%.2e", maxMeasurementErr(mx)), "-")
	return t
}

// maxMeasurementErr returns the worst per-plane monitor-vs-truth
// relative error across the matrix (0 for matrices without recorded
// ground truth).
func maxMeasurementErr(mx *workload.Matrix) float64 {
	worst := 0.0
	for i := range mx.Runs {
		if e := mx.Runs[i].MeasurementErr(); e > worst {
			worst = e
		}
	}
	return worst
}

func avgSlowdown(mx *workload.Matrix, alg workload.Algorithm) float64 {
	sum := 0.0
	for _, n := range mx.Cfg.Sizes {
		sum += mx.AvgSlowdownAtSize(alg, n)
	}
	return sum / float64(len(mx.Cfg.Sizes))
}

func avgPower(mx *workload.Matrix, alg workload.Algorithm) float64 {
	sum := 0.0
	for _, p := range mx.Cfg.Threads {
		sum += mx.AvgPowerAtThreads(alg, p)
	}
	return sum / float64(len(mx.Cfg.Threads))
}

func openBLASPowerEnvelope(mx *workload.Matrix) (lo, hi float64) {
	var watts []float64
	for _, n := range mx.Cfg.Sizes {
		for _, p := range mx.Cfg.Threads {
			watts = append(watts, mx.Get(workload.AlgOpenBLAS, n, p).WattsTotal())
		}
	}
	return stats.MinMax(watts)
}

func sizeHeaders(mx *workload.Matrix) []string {
	out := make([]string, 0, len(mx.Cfg.Sizes))
	for _, n := range mx.Cfg.Sizes {
		out = append(out, fmt.Sprintf("N=%d", n))
	}
	return out
}

func pct(v float64) string { return fmt.Sprintf("%+.2f%%", v*100) }

// All renders every table and figure in paper order.
func All(mx *workload.Matrix) string {
	parts := []string{
		Figure1(maxThreads(mx)).String(),
		Figure3(mx).String(),
		Table2(mx).String(),
		PowerScalingFigure(mx, workload.AlgOpenBLAS, 4).String(),
		PowerScalingFigure(mx, workload.AlgStrassen, 5).String(),
		PowerScalingFigure(mx, workload.AlgCAPS, 6).String(),
		Table3(mx).String(),
		Table4(mx).String(),
		Figure7(mx).String(),
		BreakdownTable(mx, mx.Cfg.Sizes[len(mx.Cfg.Sizes)-1], maxThreads(mx)).String(),
		MeasurementTable(mx).String(),
		Headlines(mx).String(),
	}
	if len(mx.Cfg.Clusters) > 0 {
		parts = append(parts, CommTable(mx).String())
	}
	return strings.Join(parts, "\n")
}

// nodeAlgorithms returns the matrix's single-node algorithms in
// configuration order: the ones with a cell per size and thread count,
// which the node tables and figures range over. Distributed cells sit
// on the cluster axis instead.
func nodeAlgorithms(mx *workload.Matrix) []workload.Algorithm {
	var out []workload.Algorithm
	for _, alg := range mx.Cfg.Algorithms {
		if !alg.Distributed() {
			out = append(out, alg)
		}
	}
	return out
}

func maxThreads(mx *workload.Matrix) int {
	max := 1
	for _, p := range mx.Cfg.Threads {
		if p > max {
			max = p
		}
	}
	return max
}
