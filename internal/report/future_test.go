package report

import (
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/sparse"
	"capscale/internal/workload"
)

// distributedStudy sweeps algs at size n over the given cluster specs
// and renders the study table.
func distributedStudy(t *testing.T, algs []workload.Algorithm, n int, specs ...string) (*workload.Matrix, *Table) {
	t.Helper()
	cfg := workload.Config{Machine: hw.HaswellE31225(), Algorithms: algs, Sizes: []int{n}, Threads: []int{1}}
	for _, s := range specs {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Clusters = append(cfg.Clusters, spec)
	}
	mx := workload.Execute(cfg)
	return mx, DistributedStudyTable(mx)
}

// column parses one numeric column of a rendered table.
func column(t *testing.T, tbl *Table, name string) []float64 {
	t.Helper()
	col := -1
	for i, h := range tbl.Header {
		if h == name {
			col = i
		}
	}
	if col < 0 {
		t.Fatalf("table has no %q column: %v", name, tbl.Header)
	}
	var out []float64
	for _, row := range tbl.Rows {
		v, err := strconv.ParseFloat(row[col], 64)
		if err != nil {
			t.Fatalf("column %q: %v", name, err)
		}
		out = append(out, v)
	}
	return out
}

func TestDistributedStudyTable(t *testing.T) {
	_, tbl := distributedStudy(t, []workload.Algorithm{workload.AlgDistCAPS}, 2048, "1x1GbE", "7x1GbE")
	s := tbl.String()
	if !strings.Contains(s, "CAPS") || !strings.Contains(s, "ranks") {
		t.Fatalf("table missing fields:\n%s", s)
	}
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
}

// TestStudyShape: the distributed study normalizes to its first
// cluster spec, and dCAPS speeds up while cluster power grows with
// the nodes.
func TestStudyShape(t *testing.T) {
	_, tbl := distributedStudy(t, []workload.Algorithm{workload.AlgDistCAPS}, 4096, "1x1GbE", "7x1GbE", "49x1GbE")
	if len(tbl.Rows) != 3 {
		t.Fatalf("points %d", len(tbl.Rows))
	}
	speedup, s, watts := column(t, tbl, "speedup"), column(t, tbl, "S (Eq.5)"), column(t, tbl, "watts")
	if speedup[0] != 1 || s[0] != 1 {
		t.Fatalf("baseline not normalized: %v", tbl.Rows[0])
	}
	for i := 1; i < len(tbl.Rows); i++ {
		if speedup[i] <= speedup[i-1] {
			t.Fatalf("speedup not increasing: %v", speedup)
		}
		if watts[i] <= watts[i-1] {
			t.Fatalf("cluster power should grow with nodes: %v", watts)
		}
	}
}

// TestStudySupportsStrassen: distributed classic Strassen runs on any
// node count and its study rows are non-degenerate.
func TestStudySupportsStrassen(t *testing.T) {
	_, tbl := distributedStudy(t, []workload.Algorithm{workload.AlgDStrassen}, 2048, "1x1GbE", "4x1GbE")
	if len(tbl.Rows) != 2 {
		t.Fatalf("points %d", len(tbl.Rows))
	}
	secs, watts, s := column(t, tbl, "time (s)"), column(t, tbl, "watts"), column(t, tbl, "S (Eq.5)")
	for i := range tbl.Rows {
		if secs[i] <= 0 || watts[i] <= 0 || s[i] <= 0 {
			t.Fatalf("degenerate point %v", tbl.Rows[i])
		}
	}
	if column(t, tbl, "comm (MB)")[1] <= 0 {
		t.Fatal("no communication recorded at 4 ranks")
	}
}

// TestStudyCellsReconcile: every cell of the epscale study artifacts
// — future-dmm's default sweep and the platform sweep — is a clean
// measurement that reconciles with the device's truth on every plane.
func TestStudyCellsReconcile(t *testing.T) {
	dist, _ := distributedStudy(t, []workload.Algorithm{workload.AlgDistCAPS}, 8192, "1x1GbE", "7x1GbE", "49x1GbE")
	mxs := []*workload.Matrix{dist}
	for _, m := range hw.Zoo() {
		mxs = append(mxs, workload.Execute(workload.PlatformConfig(m, 2048)))
	}
	for _, mx := range mxs {
		for i := range mx.Runs {
			r := &mx.Runs[i]
			if r.Failed() || r.Degraded {
				t.Fatalf("cell %s/%d@%s on %s is not clean: %+v", r.Alg, r.N, r.Cluster, mx.Cfg.Machine.Name, r)
			}
			for _, pair := range [][2]float64{
				{r.PKGJoules, r.TruthPKGJoules},
				{r.PP0Joules, r.TruthPP0Joules},
				{r.DRAMJoules, r.TruthDRAMJoules},
				{r.NICJoules, r.TruthNICJoules},
				{r.SwitchJoules, r.TruthSwitchJoules},
			} {
				if diff := math.Abs(pair[0] - pair[1]); diff > 0.01 {
					t.Fatalf("cell %s/%d@%s on %s: measured %v J vs truth %v J", r.Alg, r.N, r.Cluster, mx.Cfg.Machine.Name, pair[0], pair[1])
				}
			}
		}
	}
}

func TestSparseStudyTable(t *testing.T) {
	m := hw.HaswellE31225()
	a := sparse.RandomUniform(rand.New(rand.NewSource(1)), 512, 0.02)
	pts := sparse.EnergyStudy(m, a, []int{1, 2}, 5)
	tbl := SparseStudyTable(pts)
	if len(tbl.Rows) != 6 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	s := tbl.String()
	for _, want := range []string{"CSR", "COO", "ELL"} {
		if !strings.Contains(s, want) {
			t.Fatalf("missing %s", want)
		}
	}
}

func TestPlatformTable(t *testing.T) {
	tbl := PlatformTable([]*workload.Matrix{workload.Execute(workload.PlatformConfig(hw.HaswellE31225(), 512))})
	if len(tbl.Rows) != 3 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	if !strings.Contains(tbl.String(), "crossover") {
		t.Fatal("crossover column missing")
	}
}
