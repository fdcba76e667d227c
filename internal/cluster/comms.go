package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
)

// AllreduceAlgo selects the collective algorithm family the MPI layer
// uses for Allreduce (and Barrier through it).
type AllreduceAlgo int

const (
	// AllreduceBinomial is Reduce-then-Bcast along binomial trees:
	// 2·ceil(log2 P) rounds, latency-optimal for small payloads.
	AllreduceBinomial AllreduceAlgo = iota
	// AllreduceRing is ReduceScatter-then-Allgather along the ring:
	// 2·(P−1) rounds but each moves bytes/P, bandwidth-optimal for
	// large payloads.
	AllreduceRing
)

func (a AllreduceAlgo) String() string {
	switch a {
	case AllreduceBinomial:
		return "binomial"
	case AllreduceRing:
		return "ring"
	}
	return fmt.Sprintf("AllreduceAlgo(%d)", int(a))
}

// Comms is the first-class communication-model configuration: the
// knobs a fabric is actually specified by (link latency, achievable
// per-link bandwidth, per-message CPU overhead, switch tiers, and the
// collective-algorithm choice), in the style of network-simulator
// machine files. Fabric() compiles it into the effective Interconnect
// the MPI layer charges against, so presets are data, not code.
type Comms struct {
	Name string
	// LinkLatencySec is the pure wire latency of one link hop (α per
	// link); a message crosses SwitchTiers+1 links end to end.
	LinkLatencySec float64
	// LinkBandwidth is the raw per-link signaling rate in B/s;
	// LinkEfficiency scales it to the achievable rate (0 < eff ≤ 1,
	// 0 means 1.0).
	LinkBandwidth  float64
	LinkEfficiency float64
	// PerMessageOverheadSec is the sender/receiver CPU overhead (o).
	PerMessageOverheadSec float64
	// SwitchLatencySec is the traversal latency of one switch tier;
	// SwitchTiers is how many tiers a worst-case message crosses
	// (0 means 1: a single top-of-rack switch).
	SwitchLatencySec float64
	SwitchTiers      int
	// Allreduce picks the collective family (binomial vs ring).
	Allreduce AllreduceAlgo

	// Power model: per-node adapter idle draw and per-GB transfer
	// energy, plus the standing draw of each switch tier.
	NICIdleWatts        float64
	NICPerGBs           float64
	SwitchIdleWattsTier float64
}

// Validate reports descriptive errors for inconsistent comms models.
func (cc Comms) Validate() error {
	switch {
	case cc.LinkLatencySec < 0 || cc.SwitchLatencySec < 0 || cc.PerMessageOverheadSec < 0:
		return fmt.Errorf("cluster: comms %q: negative latency/overhead", cc.Name)
	case cc.LinkBandwidth <= 0:
		return fmt.Errorf("cluster: comms %q: non-positive link bandwidth", cc.Name)
	case cc.LinkEfficiency < 0 || cc.LinkEfficiency > 1:
		return fmt.Errorf("cluster: comms %q: link efficiency %v outside [0,1]", cc.Name, cc.LinkEfficiency)
	case cc.SwitchTiers < 0:
		return fmt.Errorf("cluster: comms %q: negative switch tiers", cc.Name)
	case cc.Allreduce != AllreduceBinomial && cc.Allreduce != AllreduceRing:
		return fmt.Errorf("cluster: comms %q: unknown allreduce algorithm %d", cc.Name, int(cc.Allreduce))
	case cc.NICIdleWatts < 0 || cc.NICPerGBs < 0 || cc.SwitchIdleWattsTier < 0:
		return fmt.Errorf("cluster: comms %q: negative power coefficient", cc.Name)
	}
	return nil
}

// tiers returns the effective switch-tier count (0 ⇒ 1).
func (cc Comms) tiers() int {
	if cc.SwitchTiers <= 0 {
		return 1
	}
	return cc.SwitchTiers
}

// efficiency returns the effective link efficiency (0 ⇒ 1).
func (cc Comms) efficiency() float64 {
	if cc.LinkEfficiency == 0 {
		return 1
	}
	return cc.LinkEfficiency
}

// Fabric compiles the comms model into the effective interconnect:
// end-to-end α over SwitchTiers+1 link hops and the tier traversals,
// achievable bandwidth, and the summed switch standing draw.
func (cc Comms) Fabric() (Interconnect, error) {
	if err := cc.Validate(); err != nil {
		return Interconnect{}, err
	}
	t := cc.tiers()
	return Interconnect{
		Name:                  cc.Name,
		LatencySec:            float64(t+1)*cc.LinkLatencySec + float64(t)*cc.SwitchLatencySec,
		Bandwidth:             cc.LinkBandwidth * cc.efficiency(),
		PerMessageOverheadSec: cc.PerMessageOverheadSec,
		Allreduce:             cc.Allreduce,
		NICIdleWatts:          cc.NICIdleWatts,
		NICPerGBs:             cc.NICPerGBs,
		SwitchIdleWatts:       float64(t) * cc.SwitchIdleWattsTier,
	}, nil
}

// GigEComms is the commodity gigabit-Ethernet model the paper's
// Lenovo node would have joined: one top-of-rack switch, ~94% of the
// raw gigabit achievable, latency-optimal binomial collectives.
func GigEComms() Comms {
	return Comms{
		Name:                  "1GbE",
		LinkLatencySec:        20e-6,
		LinkBandwidth:         125e6, // 1 Gb/s raw
		LinkEfficiency:        0.944,
		PerMessageOverheadSec: 5e-6,
		SwitchLatencySec:      10e-6,
		SwitchTiers:           1,
		Allreduce:             AllreduceBinomial,
		NICIdleWatts:          1.5,
		NICPerGBs:             4.0,
		SwitchIdleWattsTier:   8.0,
	}
}

// FDRComms is an HPC-class FDR InfiniBand model for contrast
// experiments: two switch tiers (leaf/spine), near-wire efficiency,
// bandwidth-optimal ring collectives.
func FDRComms() Comms {
	return Comms{
		Name:                  "FDR",
		LinkLatencySec:        0.35e-6,
		LinkBandwidth:         7.0e9, // 56 Gb/s raw
		LinkEfficiency:        0.971,
		PerMessageOverheadSec: 0.7e-6,
		SwitchLatencySec:      0.2e-6,
		SwitchTiers:           2,
		Allreduce:             AllreduceRing,
		NICIdleWatts:          6.0,
		NICPerGBs:             1.2,
		SwitchIdleWattsTier:   15.0,
	}
}

// CommsByName resolves a fabric name (case-insensitive, with the
// common aliases) to its comms model.
func CommsByName(name string) (Comms, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "1gbe", "gige", "gbe", "eth", "ethernet":
		return GigEComms(), nil
	case "fdr", "ib", "infiniband", "fdr-infiniband":
		return FDRComms(), nil
	}
	return Comms{}, fmt.Errorf("cluster: unknown fabric %q (known: 1GbE, FDR)", name)
}

// Spec is a parsed cluster specification: node count × fabric ×
// memory per node.
type Spec struct {
	Nodes int
	Comms Comms
	// MemPerNode is the per-node memory capacity in bytes (the M of
	// the communication lower bounds). Defaults to 8 GiB.
	MemPerNode float64
}

// DefaultMemPerNode is the assumed node memory when a spec does not
// name one — the paper's testbed class (8 GiB).
const DefaultMemPerNode = 8 << 30

// String renders the spec in its parseable form.
func (s Spec) String() string {
	out := fmt.Sprintf("%dx%s", s.Nodes, s.Comms.Name)
	if s.MemPerNode != 0 && s.MemPerNode != DefaultMemPerNode {
		out += fmt.Sprintf("@%gGiB", s.MemPerNode/(1<<30))
	}
	return out
}

// ParseSpec parses "NODESxFABRIC[@MEMGiB]" — e.g. "16x1GbE",
// "49xFDR@16GiB" — into a cluster spec.
func ParseSpec(s string) (Spec, error) {
	spec := Spec{MemPerNode: DefaultMemPerNode}
	body := strings.TrimSpace(s)
	if at := strings.LastIndex(body, "@"); at >= 0 {
		mem := strings.TrimSuffix(strings.TrimSpace(body[at+1:]), "GiB")
		gib, err := strconv.ParseFloat(mem, 64)
		spec.MemPerNode = gib * (1 << 30)
		// !(x > 0) also rejects NaN; the Inf check runs after scaling so
		// a finite GiB count that overflows in bytes fails too.
		if err != nil || !(spec.MemPerNode > 0) || math.IsInf(spec.MemPerNode, 1) {
			return Spec{}, fmt.Errorf("cluster: bad memory in spec %q (want e.g. @8GiB)", s)
		}
		body = body[:at]
	}
	i := strings.IndexAny(body, "xX")
	if i <= 0 {
		return Spec{}, fmt.Errorf("cluster: bad spec %q (want NODESxFABRIC, e.g. 16x1GbE)", s)
	}
	nodes, err := strconv.Atoi(strings.TrimSpace(body[:i]))
	if err != nil || nodes <= 0 {
		return Spec{}, fmt.Errorf("cluster: bad node count in spec %q", s)
	}
	cc, err := CommsByName(body[i+1:])
	if err != nil {
		return Spec{}, err
	}
	spec.Nodes = nodes
	spec.Comms = cc
	return spec, nil
}
