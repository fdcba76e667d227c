package capscale

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/report"
	"capscale/internal/sparse"
	"capscale/internal/workload"
)

// Benches for the paper's Section VIII future work: the distributed
// study runs on the sweep's cluster axis (workload.Execute), the
// sparse one in internal/sparse (storage-format energy scaling).

// BenchmarkFutureDistributedCAPS runs the distributed energy-performance
// scaling study across node counts, with interconnect transfer power
// included — the paper's proposed MPI follow-up — and times distributed
// CAPS on 49 nodes.
func BenchmarkFutureDistributedCAPS(b *testing.B) {
	n := 8192
	cfg := workload.Config{Machine: hw.HaswellE31225(), Sizes: []int{n}, Threads: []int{1}}
	if _, loaded := printGates.LoadOrStore("future-dmm", true); !loaded {
		// SUMMA runs on square process grids; distributed Strassen and
		// CAPS on 7^k ranks.
		for _, g := range []struct {
			algs  []workload.Algorithm
			specs string
		}{
			{[]workload.Algorithm{workload.AlgSUMMA}, "1x1GbE,4x1GbE,16x1GbE"},
			{[]workload.Algorithm{workload.AlgDStrassen, workload.AlgDistCAPS}, "1x1GbE,7x1GbE,49x1GbE"},
		} {
			study := cfg
			study.Algorithms = g.algs
			study.Clusters = clusterSpecs(b, g.specs)
			fmt.Println()
			fmt.Print(report.DistributedStudyTable(workload.Execute(study)))
		}
	}
	spec := clusterSpecs(b, "49x1GbE")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run := workload.ExecuteOneCluster(cfg, workload.AlgDistCAPS, n, spec)
		b.ReportMetric(run.Seconds, "sim-makespan-s")
	}
}

// clusterSpecs parses comma-separated cluster specs.
func clusterSpecs(b *testing.B, specs string) []cluster.Spec {
	var out []cluster.Spec
	for _, s := range strings.Split(specs, ",") {
		spec, err := cluster.ParseSpec(s)
		if err != nil {
			b.Fatal(err)
		}
		out = append(out, spec)
	}
	return out
}

// BenchmarkPlatformSweep applies the model across the machine zoo —
// the paper's "arbitrary computing platforms" ambition: per platform,
// how each algorithm fares and where Eq. 9 puts the crossover. Each
// machine's cells are one measured sweep.
func BenchmarkPlatformSweep(b *testing.B) {
	sweep := func(n int) []*workload.Matrix {
		var mxs []*workload.Matrix
		for _, m := range hw.Zoo() {
			mxs = append(mxs, workload.Execute(workload.PlatformConfig(m, n)))
		}
		return mxs
	}
	if _, loaded := printGates.LoadOrStore("platform-sweep", true); !loaded {
		fmt.Println()
		fmt.Print(report.PlatformTable(sweep(2048)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = sweep(512)
	}
}

// BenchmarkFutureSparseEnergyScaling runs the storage-format SpMV
// energy study — the paper's proposed sparse follow-up.
func BenchmarkFutureSparseEnergyScaling(b *testing.B) {
	m := hw.HaswellE31225()
	rng := rand.New(rand.NewSource(42))
	a := sparse.PowerLaw(rng, 8192, 16, 1.8)
	if _, loaded := printGates.LoadOrStore("future-sparse", true); !loaded {
		waste := a.ToCSR().ToELL().PaddingWaste()
		fmt.Printf("\nFuture work — SpMV storage-format energy scaling "+
			"(power-law 8192², %d nnz, ELL padding waste %.0f%%):\n", a.NNZ(), 100*waste)
		fmt.Printf("%-6s %8s %12s %10s %12s %12s\n",
			"format", "threads", "time (s)", "watts", "EP (Eq.1)", "traffic MB")
		for _, pt := range sparse.EnergyStudy(m, a, []int{1, 2, 3, 4}, 50) {
			fmt.Printf("%-6v %8d %12.4f %10.2f %12.1f %12.1f\n",
				pt.Format, pt.Threads, pt.Seconds, pt.Watts, pt.EP, pt.BytesMB)
		}
	}
	csr := a.ToCSR()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		spmv := sparse.BuildSpMV(m, csr, sparse.FormatCSR, sparse.Options{Workers: 4, Iterations: 50})
		_ = spmv
	}
}
