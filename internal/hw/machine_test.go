package hw

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"capscale/internal/task"
)

func TestHaswellValid(t *testing.T) {
	m := HaswellE31225()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Cores != 4 {
		t.Fatalf("cores %d", m.Cores)
	}
	// SNB-tuned peak: 3.2 GHz * 8 flops = 25.6 GF/core, 102.4 GF total.
	if got := m.PeakFlopsPerCore(); math.Abs(got-25.6e9) > 1 {
		t.Fatalf("per-core peak %v", got)
	}
	if got := m.PeakFlops(); math.Abs(got-102.4e9) > 1 {
		t.Fatalf("machine peak %v", got)
	}
}

func TestValidateRejectsBadMachines(t *testing.T) {
	base := func() *Machine { return HaswellE31225() }
	mutations := map[string]func(*Machine){
		"zero cores":        func(m *Machine) { m.Cores = 0 },
		"too many cores":    func(m *Machine) { m.Cores = MaxCores + 1 },
		"zero freq":         func(m *Machine) { m.FreqHz = 0 },
		"zero flops":        func(m *Machine) { m.FlopsPerCycle = 0 },
		"zero dram bw":      func(m *Machine) { m.DRAMBandwidth = 0 },
		"stream > total":    func(m *Machine) { m.DRAMStreamBandwidth = m.DRAMBandwidth * 2 },
		"zero l3 bw":        func(m *Machine) { m.L3Bandwidth = 0 },
		"zero remote bw":    func(m *Machine) { m.RemoteBandwidth = 0 },
		"zero l3 size":      func(m *Machine) { m.L3.SizeBytes = 0 },
		"negative overhead": func(m *Machine) { m.TaskOverhead = -1 },
		"bad efficiency":    func(m *Machine) { m.KernelEff[task.KindGEMM] = 1.5 },
	}
	for name, mutate := range mutations {
		m := base()
		mutate(m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: Validate accepted invalid machine", name)
		}
	}
}

func TestEffDefaults(t *testing.T) {
	m := HaswellE31225()
	if m.Eff(task.KindGEMM) != 0.92 {
		t.Fatalf("gemm eff %v", m.Eff(task.KindGEMM))
	}
	if m.Eff(task.Kind(42)) != 0.5 {
		t.Fatalf("unknown kind eff %v", m.Eff(task.Kind(42)))
	}
}

func TestAllWorkersMask(t *testing.T) {
	m := HaswellE31225()
	if m.AllWorkers() != 0b1111 {
		t.Fatalf("mask %b", m.AllWorkers())
	}
	m.Cores = 64
	if m.AllWorkers() != ^uint64(0) {
		t.Fatal("64-core mask")
	}
}

func TestStreamBandwidthSharing(t *testing.T) {
	m := HaswellE31225()
	if got := m.StreamBandwidth(1); got != m.DRAMStreamBandwidth {
		t.Fatalf("one stream gets %v", got)
	}
	// With 4 streams the aggregate divides evenly.
	if got := m.StreamBandwidth(4); math.Abs(got-m.DRAMBandwidth/4) > 1 {
		t.Fatalf("four streams get %v", got)
	}
	if got := m.StreamBandwidth(0); got != m.DRAMStreamBandwidth {
		t.Fatalf("zero streams clamps to one: %v", got)
	}
}

func TestStreamBandwidthMonotone(t *testing.T) {
	m := HaswellE31225()
	prev := math.Inf(1)
	for p := 1; p <= 8; p++ {
		bw := m.StreamBandwidth(p)
		if bw > prev {
			t.Fatalf("bandwidth grew with more streams at p=%d", p)
		}
		prev = bw
	}
}

func TestSegmentPowerIdle(t *testing.T) {
	m := HaswellE31225()
	p := m.IdlePower()
	if p.PP0 != 0 {
		t.Fatalf("idle PP0 %v", p.PP0)
	}
	if p.PKG != m.Power.PkgIdle {
		t.Fatalf("idle PKG %v", p.PKG)
	}
	if p.DRAM != m.Power.DRAMIdle {
		t.Fatalf("idle DRAM %v", p.DRAM)
	}
	if p.Total() != p.PKG+p.DRAM {
		t.Fatal("total mismatch")
	}
}

func TestSegmentPowerScalesWithCoresAndUtilization(t *testing.T) {
	m := HaswellE31225()
	full := Activity{Utilization: 1}
	one := m.SegmentPower([]Activity{full})
	four := m.SegmentPower([]Activity{full, full, full, full})
	wantOne := m.Power.PkgIdle + m.Power.CoreIdle + m.Power.CoreDyn
	if math.Abs(one.PKG-wantOne) > 1e-9 {
		t.Fatalf("one-core PKG %v want %v", one.PKG, wantOne)
	}
	if four.PP0 <= 3*one.PP0 {
		t.Fatalf("PP0 not additive: 1->%v 4->%v", one.PP0, four.PP0)
	}
	half := m.SegmentPower([]Activity{{Utilization: 0.5}})
	if half.PP0 >= one.PP0 {
		t.Fatal("lower utilization should draw less")
	}
}

func TestSegmentPowerClampsUtilization(t *testing.T) {
	m := HaswellE31225()
	over := m.SegmentPower([]Activity{{Utilization: 2}})
	exact := m.SegmentPower([]Activity{{Utilization: 1}})
	if over.PP0 != exact.PP0 {
		t.Fatal("utilization not clamped above")
	}
	under := m.SegmentPower([]Activity{{Utilization: -1}})
	zero := m.SegmentPower([]Activity{{Utilization: 0}})
	if under.PP0 != zero.PP0 {
		t.Fatal("utilization not clamped below")
	}
}

func TestSegmentPowerTrafficTerms(t *testing.T) {
	m := HaswellE31225()
	quiet := m.SegmentPower([]Activity{{Utilization: 0.5}})
	loud := m.SegmentPower([]Activity{{Utilization: 0.5, DRAMRate: 10e9, L3Rate: 50e9}})
	if loud.DRAM <= quiet.DRAM {
		t.Fatal("DRAM traffic should raise DRAM plane")
	}
	if loud.PKG <= quiet.PKG {
		t.Fatal("L3 traffic should raise PKG plane")
	}
	wantDRAM := m.Power.DRAMIdle + m.Power.DRAMPerGBs*10
	if math.Abs(loud.DRAM-wantDRAM) > 1e-9 {
		t.Fatalf("DRAM plane %v want %v", loud.DRAM, wantDRAM)
	}
}

func TestCalibrationOpenBLASLikePower(t *testing.T) {
	// A compute-saturated kernel on all four cores should land near the
	// paper's observed 49.13 W average for 4-thread OpenBLAS (Table III).
	m := HaswellE31225()
	act := make([]Activity, 4)
	for i := range act {
		act[i] = Activity{Utilization: 0.95, DRAMRate: 2e9, L3Rate: 10e9}
	}
	p := m.SegmentPower(act)
	if p.Total() < 44 || p.Total() > 55 {
		t.Fatalf("4-core compute-bound total %v W, expected within [44,55]", p.Total())
	}
	one := m.SegmentPower(act[:1])
	if one.Total() < 17 || one.Total() > 24 {
		t.Fatalf("1-core compute-bound total %v W, expected within [17,24]", one.Total())
	}
}

func TestAggregatePowerMatchesSegmentPower(t *testing.T) {
	m := HaswellE31225()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(9)
		act := make([]Activity, n)
		sumU, sumL3, sumDRAM := 0.0, 0.0, 0.0
		for i := range act {
			act[i] = Activity{
				Utilization: rng.Float64()*1.4 - 0.2, // exercise clamping
				L3Rate:      rng.Float64() * 50e9,
				DRAMRate:    rng.Float64() * 10e9,
			}
			sumU += math.Max(0, math.Min(1, act[i].Utilization))
			sumL3 += act[i].L3Rate
			sumDRAM += act[i].DRAMRate
		}
		seg := m.SegmentPower(act)
		agg := m.AggregatePower(n, sumU, sumL3, sumDRAM)
		if math.Abs(seg.PKG-agg.PKG) > 1e-9 || math.Abs(seg.PP0-agg.PP0) > 1e-9 ||
			math.Abs(seg.DRAM-agg.DRAM) > 1e-9 {
			t.Fatalf("trial %d: segment %+v aggregate %+v", trial, seg, agg)
		}
	}
}

func TestClusterScalesAggregates(t *testing.T) {
	node := HaswellE31225()
	c := Cluster(node, 1024)
	if c.Cores != 4096 {
		t.Fatalf("cluster cores %d", c.Cores)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	// Aggregate resources scale with node count.
	if c.DRAMBandwidth != node.DRAMBandwidth*1024 || c.L3Bandwidth != node.L3Bandwidth*1024 {
		t.Fatal("aggregate bandwidths should scale")
	}
	if c.L3.SizeBytes != node.L3.SizeBytes*1024 {
		t.Fatal("L3 size should scale")
	}
	if c.Power.PkgIdle != node.Power.PkgIdle*1024 || c.Power.DRAMIdle != node.Power.DRAMIdle*1024 {
		t.Fatal("idle powers should scale")
	}
	// Per-core / per-stream quantities do not.
	if c.FreqHz != node.FreqHz || c.DRAMStreamBandwidth != node.DRAMStreamBandwidth ||
		c.Power.CoreDyn != node.Power.CoreDyn || c.TaskOverhead != node.TaskOverhead ||
		c.RemoteBandwidth != node.RemoteBandwidth {
		t.Fatal("per-core quantities should not scale")
	}
	// The node machine is untouched, including its efficiency map.
	c.KernelEff[task.KindGEMM] = 0.1
	if node.KernelEff[task.KindGEMM] != 0.92 {
		t.Fatal("cluster shares the node's KernelEff map")
	}
	if node.Cores != 4 {
		t.Fatal("node mutated")
	}
}

func TestClusterSingleNodeIsIdentity(t *testing.T) {
	node := HaswellE31225()
	c := Cluster(node, 1)
	if c.Cores != node.Cores || c.DRAMBandwidth != node.DRAMBandwidth ||
		c.Power.PkgIdle != node.Power.PkgIdle {
		t.Fatal("1-node cluster should match the node")
	}
}

func TestClusterRejectsNonPositiveNodes(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 0 nodes")
		}
	}()
	Cluster(HaswellE31225(), 0)
}

func TestLevelFor(t *testing.T) {
	m := HaswellE31225()
	// 1 MB with one sharer: fits in half of 8 MB.
	if m.LevelFor(1<<20, 1) != LevelL3 {
		t.Fatal("1MB should be L3-resident")
	}
	// 6 MB with one sharer exceeds half the LLC.
	if m.LevelFor(6<<20, 1) != LevelDRAM {
		t.Fatal("6MB should spill")
	}
	// 1.5 MB with four sharers exceeds 8MB/4/2 = 1MB.
	if m.LevelFor(1.5*(1<<20), 4) != LevelDRAM {
		t.Fatal("1.5MB/4 sharers should spill")
	}
	if m.LevelFor(1<<19, 0) != LevelL3 {
		t.Fatal("sharers clamp")
	}
}

func TestCostLeafComputeBound(t *testing.T) {
	m := HaswellE31225()
	w := &task.Work{Kind: task.KindGEMM, Flops: 2.56e9} // ~0.109s at 92% of 25.6GF
	lc := m.CostLeaf(w, m.Uncontended(), 0, false)
	want := 2.56e9/(25.6e9*0.92) + m.TaskOverhead
	if math.Abs(lc.Duration-want)/want > 1e-12 {
		t.Fatalf("duration %v want %v", lc.Duration, want)
	}
	if lc.Utilization < 0.99 {
		t.Fatalf("compute-bound utilization %v", lc.Utilization)
	}
}

func TestCostLeafMemoryBound(t *testing.T) {
	m := HaswellE31225()
	w := &task.Work{Kind: task.KindAdd, Flops: 1e6, DRAMBytes: 750e6} // 0.1s at 7.5GB/s
	lc := m.CostLeaf(w, m.Uncontended(), 0, false)
	if lc.Utilization > 0.01 {
		t.Fatalf("memory-bound utilization %v", lc.Utilization)
	}
	if lc.DRAMRate < 7e9 || lc.DRAMRate > 7.5e9 {
		t.Fatalf("DRAM rate %v", lc.DRAMRate)
	}
}

func TestCostLeafContentionSlowsMemory(t *testing.T) {
	m := HaswellE31225()
	w := &task.Work{Kind: task.KindAdd, DRAMBytes: 1e8}
	alone := m.CostLeaf(w, m.Uncontended(), 0, false)
	crowded := m.CostLeaf(w, m.Shared(4), 0, false)
	if crowded.Duration <= alone.Duration {
		t.Fatal("contention should slow a memory-bound leaf")
	}
}

func TestCostLeafRemoteTraffic(t *testing.T) {
	m := HaswellE31225()
	w := &task.Work{Kind: task.KindBaseMul, Flops: 1e5, L3Bytes: 1e5}
	local := m.CostLeaf(w, m.Uncontended(), 0, false)
	remote := m.CostLeaf(w, m.Uncontended(), 5e6, false)
	if remote.Duration <= local.Duration {
		t.Fatal("remote bytes should cost time")
	}
	if remote.L3Rate <= local.L3Rate {
		t.Fatal("remote bytes should transit L3")
	}
}

func TestCostLeafStealOverhead(t *testing.T) {
	m := HaswellE31225()
	w := &task.Work{Kind: task.KindBaseMul, Flops: 1e5}
	home := m.CostLeaf(w, m.Uncontended(), 0, false)
	stolen := m.CostLeaf(w, m.Uncontended(), 0, true)
	if d := stolen.Duration - home.Duration; math.Abs(d-m.StealOverhead) > 1e-15 {
		t.Fatalf("steal penalty %v want %v", d, m.StealOverhead)
	}
}

func TestCostLeafEmptyWork(t *testing.T) {
	m := HaswellE31225()
	lc := m.CostLeaf(&task.Work{Kind: task.KindOverhead}, m.Uncontended(), 0, false)
	if lc.Duration != m.TaskOverhead {
		t.Fatalf("empty leaf duration %v", lc.Duration)
	}
	if lc.Utilization != 0 {
		t.Fatalf("empty leaf utilization %v", lc.Utilization)
	}
}

func TestSerialTimeAndCriticalPath(t *testing.T) {
	m := HaswellE31225()
	var a task.Arena
	mk := func(flops float64) task.Ref {
		return a.Leaf(task.Work{Kind: task.KindGEMM, Flops: flops})
	}
	// Two parallel chains: one long leaf vs two short; span is the max.
	root := a.Node(a.Par(mk(2e9), a.Seq(mk(0.5e9), mk(0.5e9))))
	serial := m.SerialTime(root)
	span := m.CriticalPath(root)
	if span >= serial {
		t.Fatalf("span %v not under serial %v", span, serial)
	}
	c := m.Uncontended()
	long := m.CostLeaf(&task.Work{Kind: task.KindGEMM, Flops: 2e9}, c, 0, false).Duration
	if math.Abs(span-long) > 1e-12 {
		t.Fatalf("span %v want %v", span, long)
	}
}

func TestPropertySpanNeverExceedsSerial(t *testing.T) {
	m := HaswellE31225()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		root := randomCostTree(rng, 4)
		return m.CriticalPath(root) <= m.SerialTime(root)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyCostMonotoneInFlops(t *testing.T) {
	m := HaswellE31225()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		f1 := rng.Float64() * 1e9
		f2 := f1 + rng.Float64()*1e9
		c := m.Uncontended()
		d1 := m.CostLeaf(&task.Work{Kind: task.KindGEMM, Flops: f1}, c, 0, false).Duration
		d2 := m.CostLeaf(&task.Work{Kind: task.KindGEMM, Flops: f2}, c, 0, false).Duration
		return d2 >= d1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPowerMonotoneInActiveCores(t *testing.T) {
	m := HaswellE31225()
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(3)
		act := make([]Activity, n+1)
		for i := range act {
			act[i] = Activity{Utilization: rng.Float64()}
		}
		fewer := m.SegmentPower(act[:n])
		more := m.SegmentPower(act)
		return more.PP0 >= fewer.PP0 && more.PKG >= fewer.PKG
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func randomCostTree(rng *rand.Rand, depth int) *task.Node {
	var a task.Arena
	var rec func(depth int) task.Ref
	rec = func(depth int) task.Ref {
		if depth == 0 || rng.Intn(3) == 0 {
			return a.Leaf(task.Work{
				Kind:      task.Kind(rng.Intn(4)),
				Flops:     rng.Float64() * 1e8,
				DRAMBytes: rng.Float64() * 1e7,
				L3Bytes:   rng.Float64() * 1e7,
			})
		}
		n := 1 + rng.Intn(3)
		children := make([]task.Ref, n)
		for i := range children {
			children[i] = rec(depth - 1)
		}
		if rng.Intn(2) == 0 {
			return a.Seq(children...)
		}
		return a.Par(children...)
	}
	return a.Node(rec(depth))
}
