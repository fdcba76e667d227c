package hw

import "capscale/internal/task"

// Contention carries the shared-resource bandwidth available to one
// leaf at dispatch time, as decided by the scheduler from the number of
// concurrently active memory streams.
type Contention struct {
	// DRAMBandwidth is this leaf's share of memory bandwidth, B/s.
	DRAMBandwidth float64
	// L3Bandwidth is this leaf's share of shared-cache bandwidth, B/s.
	L3Bandwidth float64
}

// Uncontended returns the contention state of a leaf running alone.
func (m *Machine) Uncontended() Contention {
	return Contention{DRAMBandwidth: m.DRAMStreamBandwidth, L3Bandwidth: m.L3Bandwidth}
}

// Shared returns the contention state with `streams` concurrently
// active leaves.
func (m *Machine) Shared(streams int) Contention {
	if streams < 1 {
		streams = 1
	}
	return Contention{
		DRAMBandwidth: m.StreamBandwidth(streams),
		L3Bandwidth:   m.L3Bandwidth / float64(streams),
	}
}

// LeafCost is the simulator's estimate for executing one leaf.
type LeafCost struct {
	// Duration is the leaf's execution time in seconds, including
	// dispatch overhead.
	Duration float64
	// Utilization is the compute fraction of Duration, feeding the
	// power model.
	Utilization float64
	// DRAMRate and L3Rate are average traffic rates over Duration, B/s.
	DRAMRate float64
	L3Rate   float64
}

// CostLeaf evaluates the roofline cost model for leaf work w.
//
// Compute time is flops over the kernel's achievable rate; memory time
// serializes DRAM, shared-cache and remote (cache-to-cache) transfers at
// their contended bandwidths. Compute and memory overlap perfectly
// (duration is their max — optimistic, but uniformly so for all three
// algorithms), and a fixed dispatch overhead is added, plus a steal
// penalty when the leaf ran outside its preferred worker set.
//
// remoteBytes is decided by the scheduler's affinity tracking: bytes the
// leaf reads that were last written by a different worker. Remote
// traffic also transits the shared cache, so it contributes to L3Rate
// for the power model.
func (m *Machine) CostLeaf(w *task.Work, c Contention, remoteBytes float64, stolen bool) LeafCost {
	return m.CostAt(m.FlopRate(w.Kind), w.Demand(), c, remoteBytes, stolen)
}

// FlopRate returns the flops/s one core achieves on a compute-bound
// kernel of the given kind: its peak times the kind's efficiency.
func (m *Machine) FlopRate(kind task.Kind) float64 { return m.PeakFlopsPerCore() * m.Eff(kind) }

// CostAt is CostLeaf on a leaf's cost-model inputs alone, as the
// simulator reads them from a tree's records, with the kind's FlopRate
// supplied by the caller, so a scheduler that costs many leaves of few
// kinds looks each rate up once per run instead of once per leaf.
func (m *Machine) CostAt(rate float64, w task.Demand, c Contention, remoteBytes float64, stolen bool) LeafCost {
	computeT := 0.0
	if w.Flops > 0 {
		computeT = w.Flops / rate
	}
	memT := 0.0
	if w.DRAMBytes > 0 {
		memT += w.DRAMBytes / c.DRAMBandwidth
	}
	if w.L3Bytes > 0 {
		memT += w.L3Bytes / c.L3Bandwidth
	}
	if remoteBytes > 0 {
		memT += remoteBytes / m.RemoteBandwidth
	}
	busy := computeT
	if memT > busy {
		busy = memT
	}
	dur := busy + m.TaskOverhead
	if stolen {
		dur += m.StealOverhead
	}
	lc := LeafCost{Duration: dur}
	if dur > 0 {
		lc.Utilization = computeT / dur
		lc.DRAMRate = w.DRAMBytes / dur
		lc.L3Rate = (w.L3Bytes + remoteBytes) / dur
	}
	return lc
}

// SerialTime returns the time the whole tree would take on one core
// with no contention — the T₁ baseline for span/work sanity checks.
func (m *Machine) SerialTime(root *task.Node) float64 {
	total := 0.0
	m.walkTimes(root.Tree(), root.Ref(), m.Uncontended(), &total)
	return total
}

// CriticalPath returns the tree's span: the uncontended time of the
// longest Seq-respecting chain. The simulated makespan can never beat
// it.
func (m *Machine) CriticalPath(root *task.Node) float64 {
	total := 0.0
	return m.walkTimes(root.Tree(), root.Ref(), m.Uncontended(), &total)
}

// walkTimes returns the span of subtree r under contention c and adds
// its leaves' times to *total, one running sum in depth-first order.
func (m *Machine) walkTimes(t *task.Tree, r task.Ref, c Contention, total *float64) float64 {
	if t.IsLeaf(r) {
		d := t.Demand(r)
		dur := m.CostAt(m.FlopRate(d.Kind), d, c, 0, false).Duration
		*total += dur
		return dur
	}
	seq, span := t.IsSeq(r), 0.0
	for i, k := 0, t.NumChildren(r); i < k; i++ {
		v := m.walkTimes(t, t.Child(r, i), c, total)
		if seq {
			span += v
		} else if v > span {
			span = v
		}
	}
	return span
}
