package workload_test

import (
	"fmt"
	"testing"

	"capscale/internal/energy"
	"capscale/internal/hw"
	"capscale/internal/report"
	"capscale/internal/workload"
)

// platformSweep runs the cross-platform study the way epscale does:
// one Execute per machine, rendered by report.PlatformTable, whose
// last column is each row's Eq. 9 crossover.
func platformSweep(machines []*hw.Machine, n int) ([]*workload.Matrix, *report.Table) {
	var mxs []*workload.Matrix
	for _, m := range machines {
		mxs = append(mxs, workload.Execute(workload.PlatformConfig(m, n)))
	}
	return mxs, report.PlatformTable(mxs)
}

// crossovers collects a platform table's crossover column by machine.
func crossovers(tbl *report.Table) map[string][]string {
	out := map[string][]string{}
	for _, row := range tbl.Rows {
		out[row[0]] = append(out[row[0]], row[len(row)-1])
	}
	return out
}

func TestCrossPlatformShape(t *testing.T) {
	mxs, tbl := platformSweep(hw.Zoo(), 1024)
	if len(tbl.Rows) != len(hw.Zoo())*3 {
		t.Fatalf("points %d", len(tbl.Rows))
	}
	cross := crossovers(tbl)
	for _, mx := range mxs {
		name := mx.Cfg.Machine.Name
		rows := mx.Runs
		if len(rows) != 3 {
			t.Fatalf("%s has %d rows", name, len(rows))
		}
		for i := range rows {
			r := &rows[i]
			if r.Seconds <= 0 || r.WattsTotal() <= 0 || r.EP() <= 0 || energy.EDP(r.PKGJoules+r.DRAMJoules, r.Seconds) <= 0 {
				t.Fatalf("degenerate point %+v", r)
			}
		}
		// Crossover identical across a machine's rows.
		for _, c := range cross[name][1:] {
			if c != cross[name][0] {
				t.Fatalf("%s crossover varies per algorithm", name)
			}
		}
		// OpenBLAS fastest on every platform at these sizes.
		blasT := mx.Get(workload.AlgOpenBLAS, 1024, mx.Cfg.Machine.Cores).Seconds
		for i := range rows {
			if r := &rows[i]; r.Alg != workload.AlgOpenBLAS && r.Seconds <= blasT {
				t.Errorf("%s: %v not slower than OpenBLAS", name, r.Alg)
			}
		}
	}
}

func TestCrossPlatformCrossoverTracksBalance(t *testing.T) {
	_, tbl := platformSweep(hw.Zoo(), 512)
	cross := map[string]float64{}
	for name, c := range crossovers(tbl) {
		var v float64
		if _, err := fmt.Sscan(c[0], &v); err != nil {
			t.Fatal(err)
		}
		cross[name] = v
	}
	hbm := cross[hw.BandwidthRichNode().Name]
	paper := cross[hw.HaswellE31225().Name]
	if hbm >= paper {
		t.Fatalf("bandwidth-rich node crossover %v not below the paper machine's %v", hbm, paper)
	}
	// The HBM node's crossover should be small enough that Strassen
	// pays off at modest sizes there.
	if hbm > 512 {
		t.Fatalf("HBM crossover %v unexpectedly large", hbm)
	}
}

func TestCrossPlatformFasterMachineFasterRun(t *testing.T) {
	mxs, _ := platformSweep([]*hw.Machine{hw.HaswellE31225(), hw.XeonE52690v3()}, 2048)
	paper := mxs[0].Get(workload.AlgOpenBLAS, 2048, mxs[0].Cfg.Machine.Cores).Seconds
	xeon := mxs[1].Get(workload.AlgOpenBLAS, 2048, mxs[1].Cfg.Machine.Cores).Seconds
	if xeon >= paper {
		t.Fatalf("12-core FMA Xeon (%v) not faster than the paper node (%v)", xeon, paper)
	}
}
