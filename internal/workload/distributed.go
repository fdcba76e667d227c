package workload

import (
	"fmt"
	"math"
	"time"

	"capscale/internal/cluster"
	"capscale/internal/dmm"
	"capscale/internal/faults"
	"capscale/internal/mpi"
	"capscale/internal/obs"
	"capscale/internal/rapl"
)

// Distributed cell execution: a cell on the cluster axis runs its rank
// program through the simulated MPI layer, renders the run as a
// cluster power timeline (node planes summed over ranks, NIC, switch),
// and measures that timeline through the same monitor stack as the
// single-node cells — so faults, quarantine, checkpointing and
// reconciliation work unchanged, with the NIC and switch planes
// sampled RAPL-style alongside PKG/PP0/DRAM.

// fitRanks resolves the communicator size (and 2.5D replication) for
// one distributed cell on its cluster spec. It panics on unusable
// combinations — Validate admits any spec, but an algorithm whose
// structure cannot fit even one rank is a configuration error.
func fitRanks(alg Algorithm, n int, spec *cluster.Spec) (ranks, replication int) {
	switch alg {
	case AlgSUMMA:
		r, err := dmm.FitSUMMA(n, spec.Nodes)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		return r, 1
	case Alg25D:
		r, c, err := dmm.Fit25D(n, spec.Nodes, spec.MemPerNode)
		if err != nil {
			panic(fmt.Sprintf("workload: %v", err))
		}
		return r, c
	case AlgDStrassen:
		return spec.Nodes, 1
	case AlgDistCAPS:
		return dmm.FitCAPS(n, spec.Nodes), 1
	default:
		panic(fmt.Sprintf("workload: %v is not a distributed algorithm", alg))
	}
}

// distProgram returns the rank program for one distributed cell.
func distProgram(alg Algorithm, n, replication int) func(*mpi.Rank) {
	switch alg {
	case AlgSUMMA:
		return dmm.SUMMA(n)
	case Alg25D:
		return dmm.TwoPointFiveD(n, replication)
	case AlgDStrassen:
		return dmm.Strassen(n, 0)
	case AlgDistCAPS:
		return dmm.CAPS(n, 0)
	default:
		panic(fmt.Sprintf("workload: %v is not a distributed algorithm", alg))
	}
}

// executeDistributedCell simulates and measures one cluster cell. The
// MPI run's power timeline replays into the RAPL device with the full
// cluster plane set armed; the Run's joule figures are what the
// polled monitor measured, per plane, with the device truth alongside
// as the reconciliation oracle — exactly the single-node contract,
// extended by the NIC and switch planes.
func executeDistributedCell(cfg Config, c cell, inj *faults.Injector, tr obs.Track) Run {
	t0 := time.Now()
	spec := cfg.clusterOf(c)
	ranks, replication := fitRanks(c.alg, c.n, spec)

	fabric, err := spec.Comms.Fabric()
	if err != nil {
		panic(fmt.Sprintf("workload: cluster %q: %v", spec, err))
	}
	cl, err := cluster.New(cfg.Machine, spec.Nodes, fabric)
	if err != nil {
		panic(fmt.Sprintf("workload: cluster %q: %v", spec, err))
	}

	res, segs := mpi.RunTraced(cl, ranks, distProgram(c.alg, c.n, replication))

	run := Run{
		Alg: c.alg, N: c.n, Threads: cfg.Machine.Cores,
		Cluster: spec.String(), Ranks: ranks, Replication: replication,
		WireBytes:       res.BytesSent,
		Messages:        res.Messages,
		CritAlphaTerms:  res.CritAlphaTerms,
		CritCommSeconds: res.CritCommSeconds,
	}
	stream := cfg.meter(rapl.ClusterPlanes(), inj, tr)
	for _, seg := range segs {
		stream.OnSegment(seg)
	}
	measured(&run, stream)

	// Cross-check the oracle: the device's integration of the replayed
	// timeline must reproduce the MPI run's own energy account (PP0
	// nests inside PKG, so it is excluded from the sum).
	truth := run.TruthPKGJoules + run.TruthDRAMJoules + run.TruthNICJoules + run.TruthSwitchJoules
	if diff := math.Abs(truth - res.TotalJoules()); diff > 1e-6*math.Max(1, res.TotalJoules()) {
		panic(fmt.Sprintf("workload: replay oracle %v J diverged from MPI run %v J", truth, res.TotalJoules()))
	}

	// The trace keeps the node planes (its CSV contract); NIC and
	// switch draw live in the Run's joule columns instead.
	cfg.finishCell(&run, segs, t0)
	return run
}
