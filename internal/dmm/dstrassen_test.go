package dmm

import (
	"runtime"
	"runtime/debug"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/mpi"
)

func TestDistributedStrassenSingleRank(t *testing.T) {
	c := cluster.TS140Cluster(1)
	res := mpi.Run(c, 1, Strassen(1024, 64))
	if res.BytesSent != 0 {
		t.Fatalf("1-rank Strassen communicated %v bytes", res.BytesSent)
	}
	if res.Makespan <= 0 {
		t.Fatal("no compute")
	}
}

func TestDistributedStrassenArbitraryRankCounts(t *testing.T) {
	// Unlike CAPS (7^k) and SUMMA (q²), DFS Strassen work-shares on any
	// rank count.
	for _, p := range []int{2, 3, 5, 6} {
		c := cluster.TS140Cluster(p)
		res := mpi.Run(c, p, Strassen(2048, 64))
		if res.Makespan <= 0 {
			t.Fatalf("p=%d degenerate", p)
		}
		if res.BytesSent <= 0 {
			t.Fatalf("p=%d no communication", p)
		}
	}
}

func TestDistributedStrassenCommunicatesMoreThanCAPS(t *testing.T) {
	// The distributed mirror of the paper's SMP comparison: at the same
	// rank count, the non-avoiding DFS traversal moves more data and
	// takes longer.
	c := cluster.TS140Cluster(7)
	n := 4096
	str := mpi.Run(c, 7, Strassen(n, 64))
	caps := mpi.Run(c, 7, CAPS(n, 64))
	if str.BytesSent <= caps.BytesSent {
		t.Fatalf("Strassen comm %v not above CAPS %v", str.BytesSent, caps.BytesSent)
	}
	if str.Makespan <= caps.Makespan {
		t.Fatalf("Strassen (%v s) not slower than CAPS (%v s)", str.Makespan, caps.Makespan)
	}
}

func TestDistributedStrassenFabricDecidesScaling(t *testing.T) {
	// The honest headline: the full-redistribution DFS traversal is so
	// communication-heavy that on gigabit Ethernet adding nodes makes
	// it SLOWER, while on InfiniBand it scales — the gap communication
	// avoidance exists to close.
	n := 4096
	node := cluster.TS140Cluster(1).Node

	gige, err := cluster.New(node, 4, cluster.GigE())
	if err != nil {
		t.Fatal(err)
	}
	gigeSpeedup := mpi.Run(gige, 1, Strassen(n, 64)).Makespan / mpi.Run(gige, 4, Strassen(n, 64)).Makespan
	if gigeSpeedup > 1.6 {
		t.Fatalf("DFS Strassen 4-rank speedup %v on GigE — should be comm-crippled", gigeSpeedup)
	}

	ib, err := cluster.New(node, 4, cluster.InfiniBandFDR())
	if err != nil {
		t.Fatal(err)
	}
	ibSpeedup := mpi.Run(ib, 1, Strassen(n, 64)).Makespan / mpi.Run(ib, 4, Strassen(n, 64)).Makespan
	if ibSpeedup <= gigeSpeedup {
		t.Fatalf("InfiniBand speedup %v not above GigE's %v", ibSpeedup, gigeSpeedup)
	}
	if ibSpeedup < 2 {
		t.Fatalf("DFS Strassen speedup %v too low even on InfiniBand", ibSpeedup)
	}
}

// TestTracedRunAllocationBudget: a traced run folds its ranks' power
// deltas into the timeline as it proceeds, so its logs are bounded by
// how far the ranks drift apart, not by how many deltas it emits.
// DStrassen at n = 2048 on 64 ranks emits 207,104 deltas, 9.9 MB of
// log, more than the budget: a run that kept them all until its end
// fails. It allocates about 4.5 MB in all: its message queues, the
// logs between folds and the timeline. The collector is off for the
// test, as in the warm-cell gate.
func TestTracedRunAllocationBudget(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const budget = 9 << 20
	cl := fdrCluster(t)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	mpi.RunTraced(cl, cl.Nodes, Strassen(2048, 0))
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("a traced DStrassen n=2048 run on 64 ranks allocated %.1f MiB, budget %d MiB", float64(got)/(1<<20), budget>>20)
	}
}
