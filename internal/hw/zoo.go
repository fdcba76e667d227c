package hw

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"capscale/internal/task"
)

// Additional platform models beyond the paper's test machine, for
// crossover and EP studies across platform balances (the paper's
// stated goal: "make algorithmic determinations based upon a target
// problem scale, relative platform performance and peak power
// threshold").

// XeonE52690v3 returns a 12-core Haswell-EP server: FMA peak, large
// shared cache, four DDR4 channels. High compute AND high bandwidth.
func XeonE52690v3() *Machine {
	m := &Machine{
		Name:                "Intel Xeon E5-2690 v3 (Haswell-EP, 12c)",
		Cores:               12,
		FreqHz:              2.6e9,
		FlopsPerCycle:       16, // AVX2 FMA
		L1:                  Cache{SizeBytes: 32 << 10, LineBytes: 64},
		L2:                  Cache{SizeBytes: 256 << 10, LineBytes: 64},
		L3:                  Cache{SizeBytes: 30 << 20, LineBytes: 64},
		L3Bandwidth:         300e9,
		DRAMBandwidth:       62e9,
		DRAMStreamBandwidth: 12e9,
		RemoteBandwidth:     24e9,
		KernelEff: map[task.Kind]float64{
			task.KindGEMM:     0.90,
			task.KindBaseMul:  0.30,
			task.KindAdd:      0.95,
			task.KindCopy:     0.95,
			task.KindOverhead: 0.01,
		},
		TaskOverhead:  1.0e-6,
		StealOverhead: 2.0e-6,
		Power: PowerModel{
			PkgIdle:    22,
			CoreIdle:   1.2,
			CoreDyn:    8.0,
			L3PerGBs:   0.01,
			DRAMIdle:   4.0,
			DRAMPerGBs: 0.18,
		},
	}
	mustValid(m)
	return m
}

// SkylakeDesktop returns a 4-core desktop part: FMA peak against two
// DDR4 channels — a higher compute-to-bandwidth ratio than the paper's
// machine, pushing the Strassen crossover (Eq. 9) further out.
func SkylakeDesktop() *Machine {
	m := &Machine{
		Name:                "Skylake desktop (4c, DDR4-2400 dual channel)",
		Cores:               4,
		FreqHz:              3.5e9,
		FlopsPerCycle:       16,
		L1:                  Cache{SizeBytes: 32 << 10, LineBytes: 64},
		L2:                  Cache{SizeBytes: 256 << 10, LineBytes: 64},
		L3:                  Cache{SizeBytes: 8 << 20, LineBytes: 64},
		L3Bandwidth:         120e9,
		DRAMBandwidth:       30e9,
		DRAMStreamBandwidth: 14e9,
		RemoteBandwidth:     20e9,
		KernelEff: map[task.Kind]float64{
			task.KindGEMM:     0.92,
			task.KindBaseMul:  0.32,
			task.KindAdd:      0.95,
			task.KindCopy:     0.95,
			task.KindOverhead: 0.01,
		},
		TaskOverhead:  1.0e-6,
		StealOverhead: 2.0e-6,
		Power: PowerModel{
			PkgIdle:    8,
			CoreIdle:   1.3,
			CoreDyn:    10.5,
			L3PerGBs:   0.012,
			DRAMIdle:   1.5,
			DRAMPerGBs: 0.2,
		},
	}
	mustValid(m)
	return m
}

// BandwidthRichNode returns a hypothetical HBM-class node: modest
// compute against extreme bandwidth, pulling the Strassen crossover
// inward — useful for showing the Eq. 9 tradeoff inverting.
func BandwidthRichNode() *Machine {
	m := &Machine{
		Name:                "hypothetical HBM node (8c, 400 GB/s)",
		Cores:               8,
		FreqHz:              2.0e9,
		FlopsPerCycle:       8,
		L1:                  Cache{SizeBytes: 32 << 10, LineBytes: 64},
		L2:                  Cache{SizeBytes: 512 << 10, LineBytes: 64},
		L3:                  Cache{SizeBytes: 16 << 20, LineBytes: 64},
		L3Bandwidth:         600e9,
		DRAMBandwidth:       400e9,
		DRAMStreamBandwidth: 60e9,
		RemoteBandwidth:     80e9,
		KernelEff: map[task.Kind]float64{
			task.KindGEMM:     0.88,
			task.KindBaseMul:  0.30,
			task.KindAdd:      0.95,
			task.KindCopy:     0.95,
			task.KindOverhead: 0.01,
		},
		TaskOverhead:  1.0e-6,
		StealOverhead: 2.0e-6,
		Power: PowerModel{
			PkgIdle:    18,
			CoreIdle:   1.0,
			CoreDyn:    6.0,
			L3PerGBs:   0.008,
			DRAMIdle:   8.0,
			DRAMPerGBs: 0.05,
		},
	}
	mustValid(m)
	return m
}

// Zoo returns every built-in machine, the paper's first.
func Zoo() []*Machine {
	return []*Machine{HaswellE31225(), XeonE52690v3(), SkylakeDesktop(), BandwidthRichNode()}
}

// Lookup resolves a machine by the name it carries: a zoo machine's
// name, or the "<zoo name> × N nodes" name Cluster gives a flat
// cluster of one.
func Lookup(name string) (*Machine, error) {
	base, nodes := name, 0
	if i := strings.LastIndex(name, " × "); i >= 0 {
		count, ok := strings.CutSuffix(name[i+len(" × "):], " nodes")
		if n, err := strconv.Atoi(count); ok && err == nil && n >= 1 {
			base, nodes = name[:i], n
		}
	}
	var names []string
	for _, m := range Zoo() {
		switch {
		case m.Name != base:
			names = append(names, fmt.Sprintf("%q", m.Name))
		case nodes == 0:
			return m, nil
		case nodes <= MaxCores/m.Cores:
			return Cluster(m, nodes), nil
		default:
			return nil, fmt.Errorf("hw: machine %q has more than %d cores", name, MaxCores)
		}
	}
	return nil, fmt.Errorf("hw: unknown machine %q (valid: %s, or one of them followed by \" × N nodes\")", name, strings.Join(names, ", "))
}

func mustValid(m *Machine) {
	if err := m.Validate(); err != nil {
		panic("hw: built-in machine invalid: " + err.Error())
	}
}

// MaxPower returns the machine's worst-case draw: every core compute-
// saturated while the memory system streams at full bandwidth.
func (m *Machine) MaxPower() float64 {
	acts := make([]Activity, m.Cores)
	for i := range acts {
		acts[i] = Activity{
			Utilization: 1,
			DRAMRate:    m.DRAMBandwidth / float64(m.Cores),
			L3Rate:      m.L3Bandwidth / float64(m.Cores),
		}
	}
	return m.SegmentPower(acts).Total()
}

// dvfsExponent models dynamic power ∝ f·V² with voltage tracking
// frequency sublinearly: P_dyn ∝ f^2.4.
const dvfsExponent = 2.4

// minFreqScale is the lowest frequency DVFS can reach relative to
// nominal (real parts bottom out around a quarter of their top clock);
// caps that would require less are infeasible by frequency scaling
// alone — the regime where only an algorithmic change fits the budget.
const minFreqScale = 0.25

// DeratedForCap returns a copy of m frequency-scaled (DVFS) so that
// its worst-case draw fits capWatts, the way firmware enforces a RAPL
// package power limit. Core dynamic power scales as f^2.4; static
// terms are unchanged. It returns an error when the cap sits below the
// static floor, and m itself (unchanged) when the cap is not binding.
// The DVFS path is the baseline the paper's "power-scaling algorithmic
// complexity" proposal competes against.
func (m *Machine) DeratedForCap(capWatts float64) (*Machine, error) {
	if m.MaxPower() <= capWatts {
		return m, nil
	}
	static := m.MaxPower() - float64(m.Cores)*m.Power.CoreDyn
	if capWatts <= static {
		return nil, fmt.Errorf("hw: cap %.1f W below static floor %.1f W of %q", capWatts, static, m.Name)
	}
	// Solve static + N·CoreDyn·s^2.4 = cap for the frequency scale s.
	s := math.Pow((capWatts-static)/(float64(m.Cores)*m.Power.CoreDyn), 1/dvfsExponent)
	if s < minFreqScale {
		return nil, fmt.Errorf("hw: cap %.1f W needs %.0f%% of nominal frequency, below the %.0f%% DVFS floor of %q",
			capWatts, 100*s, 100*minFreqScale, m.Name)
	}

	out := *m
	out.Name = fmt.Sprintf("%s @ %.0f%% (RAPL cap %.0f W)", m.Name, 100*s, capWatts)
	out.FreqHz = m.FreqHz * s
	out.Power.CoreDyn = m.Power.CoreDyn * math.Pow(s, dvfsExponent)
	// Copy the efficiency map so callers cannot alias the original.
	out.KernelEff = make(map[task.Kind]float64, len(m.KernelEff))
	for k, v := range m.KernelEff {
		out.KernelEff[k] = v
	}
	if err := out.Validate(); err != nil {
		return nil, err
	}
	return &out, nil
}
