package dmm

import (
	"math"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/kernel"
)

func TestSUMMACommunicationVolume(t *testing.T) {
	// On a q×q grid, each round moves (q−1) A blocks per row and (q−1)
	// B blocks per column: total = 2·q·(q−1)·q rounds? Exactly:
	// per round, rows send q·(q−1) A blocks and columns q·(q−1) B
	// blocks; over q rounds: 2·q²·(q−1) blocks of (n/q)² doubles.
	c := cluster.TS140Cluster(4)
	n := 1024
	res := RunSUMMA(c, n, 4)
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
	res := RunSUMMA(c, n, 9)
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
	RunSUMMA(c, 512, 3)
}

func TestCAPSRequiresPowerOf7(t *testing.T) {
	c := cluster.TS140Cluster(8)
	defer func() {
		if recover() == nil {
			t.Fatal("8 ranks accepted for CAPS")
		}
	}()
	RunCAPS(c, 1024, 64, 8)
}

func TestCAPSSingleRankIsLocalStrassen(t *testing.T) {
	c := cluster.TS140Cluster(1)
	res := RunCAPS(c, 1024, 64, 1)
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
	res := RunCAPS(c, 1024, 64, 7)
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
	t1 := RunCAPS(c, n, 64, 1).Makespan
	t7 := RunCAPS(c, n, 64, 7).Makespan
	t49 := RunCAPS(c, n, 64, 49).Makespan
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
	t1 := RunSUMMA(c, n, 1).Makespan
	t4 := RunSUMMA(c, n, 4).Makespan
	t16 := RunSUMMA(c, n, 16).Makespan
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
	t1 := RunSUMMA(c, n, 1).Makespan
	t4 := RunSUMMA(c, n, 4).Makespan
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
	caps7 := RunCAPS(cCaps, n, 64, 7)
	caps49 := RunCAPS(cCaps, n, 64, 49)
	capsRatio := (caps49.BytesSent / 49) / (caps7.BytesSent / 7)

	cSumma := cluster.TS140Cluster(16)
	summa4 := RunSUMMA(cSumma, n, 4)
	summa16 := RunSUMMA(cSumma, n, 16)
	summaRatio := (summa16.BytesSent / 16) / (summa4.BytesSent / 4)

	if capsRatio >= summaRatio {
		t.Fatalf("CAPS per-rank comm ratio %v not under SUMMA's %v", capsRatio, summaRatio)
	}
}

func TestEnergyIncludesInterconnect(t *testing.T) {
	c := cluster.TS140Cluster(4)
	res := RunSUMMA(c, 2048, 4)
	if res.NICJoules <= 0 {
		t.Fatal("no interconnect energy")
	}
	if res.IdleJoules <= 0 || res.ComputeJoules <= 0 {
		t.Fatal("missing energy components")
	}
	// Fewer nodes must not be billed for the whole cluster's idle.
	solo := RunSUMMA(c, 2048, 1)
	if solo.IdleJoules/solo.Makespan >= res.IdleJoules/res.Makespan {
		t.Fatal("idle power not proportional to nodes in use")
	}
}

func TestDistributedDeterminism(t *testing.T) {
	c := cluster.TS140Cluster(7)
	a := RunCAPS(c, 2048, 64, 7)
	b := RunCAPS(c, 2048, 64, 7)
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
	rs := RunCAPS(slow, n, 64, 49)
	rf := RunCAPS(fast, n, 64, 49)
	if rf.Makespan >= rs.Makespan {
		t.Fatalf("InfiniBand (%v) not faster than GigE (%v)", rf.Makespan, rs.Makespan)
	}
}
