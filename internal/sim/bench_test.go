package sim_test

import (
	"fmt"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
	"capscale/internal/workload"
)

// benchTree builds one pinned 4-leaf Seq chain per worker under a Par
// root — every worker gets scheduled, every chain exercises the pinned
// deque path, and region producer/consumer edges add remote traffic.
func benchTree(workers int) *task.Node {
	var regions task.Regions
	chains := make([]*task.Node, workers)
	for w := 0; w < workers; w++ {
		r := regions.New()
		chains[w] = task.Seq(
			task.Leaf(task.Work{Kind: task.KindGEMM, Flops: float64(1+w%7) * 1e7,
				Writes: []task.RegionID{r}, RegionBytes: 1e4}),
			task.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: 1e5,
				Reads: []task.RegionID{r}, RegionBytes: 1e4}),
			task.Leaf(task.Work{Kind: task.KindGEMM, Flops: float64(1+w%3) * 1e7}),
			task.Leaf(task.Work{Kind: task.KindCopy, DRAMBytes: 1e5}),
		).WithAffinityMask(task.SingleWorker(w))
	}
	return task.Par(chains...)
}

// BenchmarkSimRun sweeps worker counts across four orders of magnitude.
// ns/leaf should stay near-flat (per-event dispatch is O(log n)); the
// seed list scheduler was O(n) per event and capped at 64.
func BenchmarkSimRun(b *testing.B) {
	node := hw.HaswellE31225()
	for _, workers := range []int{4, 64, 1024, 16384, 262144} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			m := hw.Cluster(node, (workers+node.Cores-1)/node.Cores)
			root := benchTree(workers)
			cfg := sim.Config{Workers: workers}
			leaves := 4 * workers
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res := sim.Run(m, root, cfg)
				if res.Leaves != leaves {
					b.Fatalf("leaves %d, want %d", res.Leaves, leaves)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves), "ns/leaf")
		})
	}
}

// BenchmarkSimulatorThroughput measures the event loop on the paper's
// largest trees: shape-only Strassen and CAPS at n=4096 on 4 workers,
// built outside the timer. ns/leaf is what a paper-sweep cell pays per
// scheduled leaf. BenchmarkSimRun's trees are 4 leaves per worker and
// stay in L1, so they cannot show the cost of reading a tree of
// several hundred thousand nodes.
func BenchmarkSimulatorThroughput(b *testing.B) {
	m := hw.HaswellE31225()
	for _, alg := range []workload.Algorithm{workload.AlgStrassen, workload.AlgCAPS} {
		b.Run(fmt.Sprintf("alg=%v", alg), func(b *testing.B) {
			root := workload.BuildTree(m, alg, 4096, 4)
			leaves := task.Collect(root).Leaves
			cfg := sim.Config{Workers: 4}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sim.Run(m, root, cfg); res.Leaves != leaves {
					b.Fatalf("leaves %d, want %d", res.Leaves, leaves)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves), "ns/leaf")
		})
	}
}
