package dmm

import (
	"math"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/kernel"
	"capscale/internal/mpi"
)

func TestSUMMACommunicationVolume(t *testing.T) {
	// On a q×q grid, each round moves (q−1) A blocks per row and (q−1)
	// B blocks per column: total = 2·q·(q−1)·q rounds? Exactly:
	// per round, rows send q·(q−1) A blocks and columns q·(q−1) B
	// blocks; over q rounds: 2·q²·(q−1) blocks of (n/q)² doubles.
	c := cluster.TS140Cluster(4)
	n := 1024
	res := mpi.Run(c, 4, SUMMA(n))
	q := 2
	bn := n / q
	wantBlocks := float64(2 * q * q * (q - 1))
	want := wantBlocks * kernel.Bytes(bn, bn)
	if math.Abs(res.BytesSent-want) > 1e-6 {
		t.Fatalf("SUMMA volume %v want %v", res.BytesSent, want)
	}
}

func TestSUMMAFlopsConserved(t *testing.T) {
	// Σ ranks' local flops must equal 2n³ regardless of the grid.
	c := cluster.TS140Cluster(9)
	n := 576 // divisible by 3
	res := mpi.Run(c, 9, SUMMA(n))
	// Makespan must be at least the per-rank compute time: 2n³/9 flops
	// over a 4-core node.
	node := c.Node
	minCompute := kernel.MulFlops(n, n, n) / 9 / (node.PeakFlops() * 0.92)
	if res.Makespan < minCompute {
		t.Fatalf("makespan %v below compute floor %v", res.Makespan, minCompute)
	}
}

func TestSUMMARequiresSquareGrid(t *testing.T) {
	c := cluster.TS140Cluster(3)
	defer func() {
		if recover() == nil {
			t.Fatal("non-square grid accepted")
		}
	}()
	mpi.Run(c, 3, SUMMA(512))
}

func TestCAPSRequiresPowerOf7(t *testing.T) {
	c := cluster.TS140Cluster(8)
	defer func() {
		if recover() == nil {
			t.Fatal("8 ranks accepted for CAPS")
		}
	}()
	mpi.Run(c, 8, CAPS(1024, 64))
}

func TestCAPSSingleRankIsLocalStrassen(t *testing.T) {
	c := cluster.TS140Cluster(1)
	res := mpi.Run(c, 1, CAPS(1024, 64))
	if res.BytesSent != 0 || res.Messages != 0 {
		t.Fatalf("1-rank CAPS communicated: %v bytes", res.BytesSent)
	}
	if res.Makespan <= 0 {
		t.Fatal("no local compute")
	}
}

func TestCAPSCommunicationPattern(t *testing.T) {
	// One BFS level on 7 ranks: every rank exchanges with its 6
	// counterparts twice (operands down, products up).
	c := cluster.TS140Cluster(7)
	res := mpi.Run(c, 7, CAPS(1024, 64))
	wantMsgs := 7 * 6 * 2
	if res.Messages != wantMsgs {
		t.Fatalf("CAPS messages %d want %d", res.Messages, wantMsgs)
	}
	if res.BytesSent <= 0 {
		t.Fatal("no communication volume")
	}
}

func TestCAPSSpeedsUpWithRanks(t *testing.T) {
	c := cluster.TS140Cluster(49)
	n := 4096
	t1 := mpi.Run(c, 1, CAPS(n, 64)).Makespan
	t7 := mpi.Run(c, 7, CAPS(n, 64)).Makespan
	t49 := mpi.Run(c, 49, CAPS(n, 64)).Makespan
	if !(t1 > t7 && t7 > t49) {
		t.Fatalf("CAPS not scaling: %v %v %v", t1, t7, t49)
	}
	if sp := t1 / t7; sp < 2 {
		t.Fatalf("7-rank speedup %v too low", sp)
	}
}

func TestSUMMASpeedsUpWithRanks(t *testing.T) {
	// On gigabit Ethernet the problem must be large enough for the n³
	// compute to dominate the n² block transfers (at n=4096 a 4-rank
	// SUMMA genuinely loses to one node — 33 MB blocks at ~118 MB/s).
	c := cluster.TS140Cluster(16)
	n := 8192
	t1 := mpi.Run(c, 1, SUMMA(n)).Makespan
	t4 := mpi.Run(c, 4, SUMMA(n)).Makespan
	t16 := mpi.Run(c, 16, SUMMA(n)).Makespan
	if !(t1 > t4 && t4 > t16) {
		t.Fatalf("SUMMA not scaling: %v %v %v", t1, t4, t16)
	}
}

func TestSUMMACommBoundAtSmallSizeOnGigE(t *testing.T) {
	// The flip side: at 4096 on GigE, 4 ranks are communication-bound
	// and do NOT beat one node — the effect the paper's future work
	// wants the distributed energy model to capture.
	c := cluster.TS140Cluster(4)
	n := 4096
	t1 := mpi.Run(c, 1, SUMMA(n)).Makespan
	t4 := mpi.Run(c, 4, SUMMA(n)).Makespan
	if t4 < t1 {
		t.Fatalf("expected comm-bound non-scaling at n=%d: t1=%v t4=%v", n, t1, t4)
	}
}

func TestCAPSPerRankCommShrinksFasterThanSUMMA(t *testing.T) {
	// CAPS per-rank communication falls like (1/4)^k with P = 7^k;
	// SUMMA's falls like 1/√P. Growing P by 7 (k by 1) must shrink
	// CAPS per-rank traffic by more than SUMMA's shrinks growing P by
	// 4 (√P by 2) — the communication-avoidance property at scale.
	n := 8192
	cCaps := cluster.TS140Cluster(49)
	caps7 := mpi.Run(cCaps, 7, CAPS(n, 64))
	caps49 := mpi.Run(cCaps, 49, CAPS(n, 64))
	capsRatio := (caps49.BytesSent / 49) / (caps7.BytesSent / 7)

	cSumma := cluster.TS140Cluster(16)
	summa4 := mpi.Run(cSumma, 4, SUMMA(n))
	summa16 := mpi.Run(cSumma, 16, SUMMA(n))
	summaRatio := (summa16.BytesSent / 16) / (summa4.BytesSent / 4)

	if capsRatio >= summaRatio {
		t.Fatalf("CAPS per-rank comm ratio %v not under SUMMA's %v", capsRatio, summaRatio)
	}
}

func TestEnergyIncludesInterconnect(t *testing.T) {
	c := cluster.TS140Cluster(4)
	res := mpi.Run(c, 4, SUMMA(2048))
	if res.NICJoules <= 0 {
		t.Fatal("no interconnect energy")
	}
	if res.IdleJoules <= 0 || res.ComputeJoules <= 0 {
		t.Fatal("missing energy components")
	}
	// Fewer nodes must not be billed for the whole cluster's idle.
	solo := mpi.Run(c, 1, SUMMA(2048))
	if solo.IdleJoules/solo.Makespan >= res.IdleJoules/res.Makespan {
		t.Fatal("idle power not proportional to nodes in use")
	}
}

func TestDistributedDeterminism(t *testing.T) {
	c := cluster.TS140Cluster(7)
	a := mpi.Run(c, 7, CAPS(2048, 64))
	b := mpi.Run(c, 7, CAPS(2048, 64))
	if a.Makespan != b.Makespan || a.TotalJoules() != b.TotalJoules() {
		t.Fatal("distributed CAPS not deterministic")
	}
}

func TestGigEVsInfiniBand(t *testing.T) {
	// Better fabric, same arithmetic: time and interconnect share of
	// energy both drop.
	n := 4096
	slow, err := cluster.New(cluster.TS140Cluster(1).Node, 49, cluster.GigE())
	if err != nil {
		t.Fatal(err)
	}
	fast, err := cluster.New(cluster.TS140Cluster(1).Node, 49, cluster.InfiniBandFDR())
	if err != nil {
		t.Fatal(err)
	}
	rs := mpi.Run(slow, 49, CAPS(n, 64))
	rf := mpi.Run(fast, 49, CAPS(n, 64))
	if rf.Makespan >= rs.Makespan {
		t.Fatalf("InfiniBand (%v) not faster than GigE (%v)", rf.Makespan, rs.Makespan)
	}
}
