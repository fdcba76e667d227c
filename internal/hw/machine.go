// Package hw models the hardware platform: core counts and clocks,
// cache hierarchy, memory bandwidth under contention, per-kernel
// achievable efficiency, and the per-power-plane power coefficients that
// drive the RAPL emulation.
//
// The paper ran on a single Lenovo TS140 (Intel E3-1225 v3 "Haswell",
// 4 cores @ 3.2 GHz, 8 MB LLC, one DDR3-1600 DIMM) with OpenBLAS built
// for the Sandy Bridge target (8 DP flops/cycle/core). HaswellE31225
// reproduces that platform; the coefficients are calibrated so that the
// simulated watt and second figures land near the paper's published
// tables (see EXPERIMENTS.md for the comparison).
package hw

import (
	"fmt"

	"capscale/internal/task"
)

// Cache describes one cache level.
type Cache struct {
	SizeBytes int
	LineBytes int
}

// PowerModel holds the coefficients of the activity-driven power model.
// All values are watts (or watts per GB/s for the traffic terms).
//
// The model:
//
//	PP0  = Σ over active cores (CoreIdle + CoreDyn·utilization)
//	PKG  = PkgIdle + PP0 + L3PerGBs·(L3 traffic rate)
//	DRAM = DRAMIdle + DRAMPerGBs·(DRAM traffic rate)
//
// where a core's utilization is the fraction of its leaf's duration
// spent on compute rather than stalled on memory. This is the mechanism
// behind the paper's central observation: a compute-saturating kernel
// (blocked DGEMM) adds the full CoreDyn per extra thread, while a
// memory-bound kernel (Strassen's additions under contention) adds far
// less, so its power curve flattens as threads grow.
type PowerModel struct {
	PkgIdle    float64 // uncore + fabric, always present while powered
	CoreIdle   float64 // per active core, independent of utilization
	CoreDyn    float64 // per active core at 100% compute utilization
	L3PerGBs   float64 // shared-cache traffic cost
	DRAMIdle   float64 // DIMM background power
	DRAMPerGBs float64 // DRAM traffic cost
}

// Machine is a complete platform description.
type Machine struct {
	Name  string
	Cores int
	// FreqHz is the core clock. The paper disabled frequency scaling in
	// the BIOS, so a single fixed clock is faithful.
	FreqHz float64
	// FlopsPerCycle is the peak double-precision flops per cycle per
	// core for the instruction mix the kernels were compiled for.
	FlopsPerCycle float64

	L1, L2, L3 Cache // L3 is shared by all cores

	// L3Bandwidth is the aggregate shared-cache bandwidth in B/s.
	L3Bandwidth float64
	// DRAMBandwidth is the aggregate sustainable memory bandwidth in B/s.
	DRAMBandwidth float64
	// DRAMStreamBandwidth is the bandwidth a single core can sustain on
	// its own in B/s. Effective per-core bandwidth under P concurrent
	// streams is min(DRAMStreamBandwidth, DRAMBandwidth/P).
	DRAMStreamBandwidth float64
	// RemoteBandwidth is the cache-to-cache (coherence) transfer rate in
	// B/s, charged when a worker consumes data last written by another
	// worker. This is the term communication-avoiding scheduling reduces.
	RemoteBandwidth float64

	// KernelEff maps a task kind to the fraction of peak flops that
	// kernel class achieves when compute-bound.
	KernelEff map[task.Kind]float64

	// TaskOverhead is the fixed dispatch cost per leaf in seconds
	// (OpenMP-task-like). StealOverhead is the additional cost when a
	// leaf is dispatched to a worker outside its affinity-preferred set.
	TaskOverhead  float64
	StealOverhead float64

	Power PowerModel
}

// MaxCores bounds a machine's core count. It matches task.MaxWorkers:
// the affinity mask type can name any core a valid machine has, so the
// simulator is no longer hard-capped at 64 workers.
const MaxCores = task.MaxWorkers

// Validate reports a descriptive error for inconsistent machine
// descriptions. All constructors in this package return validated
// machines; Validate is exported for user-defined platforms.
func (m *Machine) Validate() error {
	switch {
	case m.Cores <= 0 || m.Cores > MaxCores:
		return fmt.Errorf("hw: cores must be in [1,%d], got %d", MaxCores, m.Cores)
	case m.FreqHz <= 0:
		return fmt.Errorf("hw: non-positive frequency %v", m.FreqHz)
	case m.FlopsPerCycle <= 0:
		return fmt.Errorf("hw: non-positive flops/cycle %v", m.FlopsPerCycle)
	case m.DRAMBandwidth <= 0 || m.DRAMStreamBandwidth <= 0:
		return fmt.Errorf("hw: non-positive DRAM bandwidth")
	case m.DRAMStreamBandwidth > m.DRAMBandwidth:
		return fmt.Errorf("hw: single-stream bandwidth %v exceeds aggregate %v",
			m.DRAMStreamBandwidth, m.DRAMBandwidth)
	case m.L3Bandwidth <= 0 || m.RemoteBandwidth <= 0:
		return fmt.Errorf("hw: non-positive cache bandwidth")
	case m.L3.SizeBytes <= 0:
		return fmt.Errorf("hw: non-positive L3 size")
	case m.TaskOverhead < 0 || m.StealOverhead < 0:
		return fmt.Errorf("hw: negative overhead")
	}
	for kind, eff := range m.KernelEff {
		if eff < 0 || eff > 1 {
			return fmt.Errorf("hw: efficiency for %v out of [0,1]: %v", kind, eff)
		}
	}
	return nil
}

// PeakFlopsPerCore returns the per-core peak in flops/s.
func (m *Machine) PeakFlopsPerCore() float64 { return m.FreqHz * m.FlopsPerCycle }

// PeakFlops returns the whole-machine peak in flops/s.
func (m *Machine) PeakFlops() float64 { return m.PeakFlopsPerCore() * float64(m.Cores) }

// Eff returns the achievable fraction of peak for the given kernel
// class, defaulting to 0.5 for unknown kinds.
func (m *Machine) Eff(kind task.Kind) float64 {
	if e, ok := m.KernelEff[kind]; ok {
		return e
	}
	return 0.5
}

// AllWorkers returns the affinity mask with every core's bit set.
func (m *Machine) AllWorkers() uint64 {
	if m.Cores >= 64 {
		return ^uint64(0)
	}
	return (uint64(1) << uint(m.Cores)) - 1
}

// StreamBandwidth returns the DRAM bandwidth available to one of
// `streams` concurrently active memory streams.
func (m *Machine) StreamBandwidth(streams int) float64 {
	if streams < 1 {
		streams = 1
	}
	return min(m.DRAMStreamBandwidth, m.DRAMBandwidth/float64(streams))
}

// Activity summarizes what one core is doing during a timeline segment,
// as input to the power model.
type Activity struct {
	// Utilization is the compute fraction of the leaf's duration, in
	// [0,1].
	Utilization float64
	// L3Rate and DRAMRate are the leaf's traffic rates in B/s.
	L3Rate   float64
	DRAMRate float64
}

// PlanePower is instantaneous power per RAPL plane, in watts. PKG
// includes PP0, mirroring real RAPL semantics where the package counter
// covers the cores. For distributed runs the NIC and Switch planes
// carry the interconnect's draw (adapters and fabric switches); they
// are zero on single-node timelines.
type PlanePower struct {
	PKG  float64
	PP0  float64
	DRAM float64
	// NIC is the summed network-adapter draw of the participating
	// nodes; Switch the fabric's switching tiers. Both are RAPL-like
	// planes sampled by the monitor on cluster runs.
	NIC    float64
	Switch float64
}

// Total returns the full-system draw: package + DRAM DIMMs, plus the
// interconnect planes on distributed timelines (PP0 is inside PKG).
func (p PlanePower) Total() float64 { return p.PKG + p.DRAM + p.NIC + p.Switch }

// Add returns the component-wise sum of two plane powers.
func (p PlanePower) Add(q PlanePower) PlanePower {
	return PlanePower{
		PKG: p.PKG + q.PKG, PP0: p.PP0 + q.PP0, DRAM: p.DRAM + q.DRAM,
		NIC: p.NIC + q.NIC, Switch: p.Switch + q.Switch,
	}
}

// Sub returns the component-wise difference of two plane powers.
func (p PlanePower) Sub(q PlanePower) PlanePower {
	return PlanePower{
		PKG: p.PKG - q.PKG, PP0: p.PP0 - q.PP0, DRAM: p.DRAM - q.DRAM,
		NIC: p.NIC - q.NIC, Switch: p.Switch - q.Switch,
	}
}

// SegmentPower evaluates the power model for a set of concurrently
// active cores. Idle cores contribute nothing beyond PkgIdle, matching
// the BIOS configuration in the paper (C-states left enabled for idle
// cores, frequency scaling disabled for active ones).
func (m *Machine) SegmentPower(active []Activity) PlanePower {
	pp0 := 0.0
	l3 := 0.0
	dram := 0.0
	for _, a := range active {
		u := max(0, min(1, a.Utilization))
		pp0 += m.Power.CoreIdle + m.Power.CoreDyn*u
		l3 += a.L3Rate
		dram += a.DRAMRate
	}
	return PlanePower{
		PP0:  pp0,
		PKG:  m.Power.PkgIdle + pp0 + m.Power.L3PerGBs*l3/1e9,
		DRAM: m.Power.DRAMIdle + m.Power.DRAMPerGBs*dram/1e9,
	}
}

// AggregatePower evaluates the power model from pre-aggregated sums
// over the active cores: count active cores, the sum of their (already
// clamped to [0,1]) utilizations, and the sums of their traffic rates.
// It is the O(1) companion to SegmentPower for schedulers that maintain
// the sums incrementally instead of iterating every active core per
// timeline segment — the high-worker-count path of internal/sim.
func (m *Machine) AggregatePower(count int, sumUtil, sumL3, sumDRAM float64) PlanePower {
	pp0 := float64(count)*m.Power.CoreIdle + m.Power.CoreDyn*sumUtil
	return PlanePower{
		PP0:  pp0,
		PKG:  m.Power.PkgIdle + pp0 + m.Power.L3PerGBs*sumL3/1e9,
		DRAM: m.Power.DRAMIdle + m.Power.DRAMPerGBs*sumDRAM/1e9,
	}
}

// IdlePower returns the draw with no active cores (the quiesced state
// between experiment runs).
func (m *Machine) IdlePower() PlanePower { return m.SegmentPower(nil) }

// Cluster models `nodes` copies of a node machine as one flat Machine,
// for shape-only scalability sweeps at cluster scale. Aggregate
// resources (core count, shared-cache size and bandwidth, memory
// bandwidth, idle powers) scale with the node count, while strictly
// per-core and per-stream quantities (clock, flops/cycle, single-stream
// bandwidth, per-core power, task overheads) are unchanged. The
// cache-to-cache RemoteBandwidth deliberately does NOT scale: remote
// reads in a cluster cross the interconnect, and keeping the per-
// transfer rate at the single-node coherence rate is the conservative
// stand-in until a real network model lands.
func Cluster(node *Machine, nodes int) *Machine {
	if nodes < 1 {
		panic(fmt.Sprintf("hw: cluster needs at least 1 node, got %d", nodes))
	}
	c := *node
	f := float64(nodes)
	c.Name = fmt.Sprintf("%s × %d nodes", node.Name, nodes)
	c.Cores = node.Cores * nodes
	c.L3 = Cache{SizeBytes: node.L3.SizeBytes * nodes, LineBytes: node.L3.LineBytes}
	c.L3Bandwidth = node.L3Bandwidth * f
	c.DRAMBandwidth = node.DRAMBandwidth * f
	c.KernelEff = make(map[task.Kind]float64, len(node.KernelEff))
	for k, v := range node.KernelEff {
		c.KernelEff[k] = v
	}
	c.Power.PkgIdle = node.Power.PkgIdle * f
	c.Power.DRAMIdle = node.Power.DRAMIdle * f
	if err := c.Validate(); err != nil {
		panic("hw: cluster machine invalid: " + err.Error())
	}
	return &c
}

// HaswellE31225 returns the paper's test platform: Intel E3-1225 v3,
// 4 cores @ 3.2 GHz, 32 KB/256 KB/8 MB caches, one DDR3-1600 DIMM.
// FlopsPerCycle is 8 because the paper built OpenBLAS for the Sandy
// Bridge target (AVX without FMA).
func HaswellE31225() *Machine {
	m := &Machine{
		Name:          "Intel E3-1225 v3 (Haswell), TARGET=SANDYBRIDGE",
		Cores:         4,
		FreqHz:        3.2e9,
		FlopsPerCycle: 8,
		L1:            Cache{SizeBytes: 32 << 10, LineBytes: 64},
		L2:            Cache{SizeBytes: 256 << 10, LineBytes: 64},
		L3:            Cache{SizeBytes: 8 << 20, LineBytes: 64},
		L3Bandwidth:   96e9,
		// One DDR3-1600 DIMM: 12.8 GB/s peak, ~11 GB/s sustained, a
		// single core streams ~7.5 GB/s.
		DRAMBandwidth:       11e9,
		DRAMStreamBandwidth: 7.5e9,
		RemoteBandwidth:     9e9,
		KernelEff: map[task.Kind]float64{
			task.KindGEMM:     0.92,
			task.KindBaseMul:  0.30,
			task.KindAdd:      0.95, // adds are bandwidth-bound; compute is never the limit
			task.KindCopy:     0.95,
			task.KindOverhead: 0.01,
		},
		TaskOverhead:  1.2e-6,
		StealOverhead: 2.5e-6,
		Power: PowerModel{
			PkgIdle:    9.6,
			CoreIdle:   1.4,
			CoreDyn:    8.1,
			L3PerGBs:   0.012,
			DRAMIdle:   1.1,
			DRAMPerGBs: 0.22,
		},
	}
	if err := m.Validate(); err != nil {
		panic("hw: built-in machine invalid: " + err.Error())
	}
	return m
}

// TrafficLevel says which memory level a block of data streams from.
type TrafficLevel int

const (
	// LevelL3 means the data is expected resident in the shared cache.
	LevelL3 TrafficLevel = iota
	// LevelDRAM means the data spills to memory.
	LevelDRAM
)

// LevelFor classifies where an operand of the given footprint lives
// while `sharers` workers divide the L3: a block fits if it is no
// larger than half of this worker's share of the shared cache (the
// other half holds the concurrently live operands).
func (m *Machine) LevelFor(bytes float64, sharers int) TrafficLevel {
	if sharers < 1 {
		sharers = 1
	}
	share := float64(m.L3.SizeBytes) / float64(sharers) / 2
	if bytes <= share {
		return LevelL3
	}
	return LevelDRAM
}

// ChargeTraffic charges frac of a leaf's traffic to w: to DRAM when the
// whole traffic spills out of the sharers' LLC share (LevelFor), else
// to the LLC. Large operands stream through DRAM; small ones live in
// the workers' share of the cache.
func (m *Machine) ChargeTraffic(w *task.Work, traffic float64, sharers int, frac float64) {
	if m.LevelFor(traffic, sharers) == LevelDRAM {
		w.DRAMBytes = traffic * frac
	} else {
		w.L3Bytes = traffic * frac
	}
}
