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
	var a task.Arena
	chains := make([]task.Ref, workers)
	for w := 0; w < workers; w++ {
		r := a.New()
		chains[w] = a.WithAffinityMask(a.Seq(
			a.Leaf(task.Work{Kind: task.KindGEMM, Flops: float64(1+w%7) * 1e7,
				Writes: []task.RegionID{r}, RegionBytes: 1e4}),
			a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: 1e5,
				Reads: []task.RegionID{r}, RegionBytes: 1e4}),
			a.Leaf(task.Work{Kind: task.KindGEMM, Flops: float64(1+w%3) * 1e7}),
			a.Leaf(task.Work{Kind: task.KindCopy, DRAMBytes: 1e5}),
		), task.SingleWorker(w))
	}
	return a.Node(a.Par(chains...))
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
// several hundred thousand nodes. The n=2048 rows on 256 workers of a
// 64-node cluster are scale-sweep's cells: above 64 workers, where
// CAPS's ownership masks give the shared ready queues many distinct
// masks and power integration runs on aggregate sums.
func BenchmarkSimulatorThroughput(b *testing.B) {
	node := hw.HaswellE31225()
	cases := []struct {
		name       string
		m          *hw.Machine
		alg        workload.Algorithm
		n, workers int
	}{
		{"alg=Strassen", node, workload.AlgStrassen, 4096, 4},
		{"alg=CAPS", node, workload.AlgCAPS, 4096, 4},
		{"alg=Strassen,n=2048,workers=256", hw.Cluster(node, 64), workload.AlgStrassen, 2048, 256},
		{"alg=CAPS,n=2048,workers=256", hw.Cluster(node, 64), workload.AlgCAPS, 2048, 256},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			root := workload.BuildTree(c.m, c.alg, c.n, c.workers)
			leaves := task.Collect(root).Leaves
			cfg := sim.Config{Workers: c.workers}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if res := sim.Run(c.m, root, cfg); res.Leaves != leaves {
					b.Fatalf("leaves %d, want %d", res.Leaves, leaves)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*leaves), "ns/leaf")
		})
	}
}
