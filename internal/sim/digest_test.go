package sim_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/obs"
	"capscale/internal/sim"
	"capscale/internal/task"
	"capscale/internal/workload"
)

// resultDigest hashes every number a run reports, floats by bit
// pattern: the totals, each worker's busy time, busy time by kind in
// kind order and, when recorded, every timeline segment and every
// leaf's placement.
func resultDigest(res *sim.Result) string {
	h := sha256.New()
	bits := func(xs ...float64) {
		for _, x := range xs {
			fmt.Fprintf(h, "%x ", math.Float64bits(x))
		}
		io.WriteString(h, "\n")
	}
	bits(res.Makespan, res.EnergyPKG, res.EnergyPP0, res.EnergyDRAM, res.RemoteBytes, res.AllocHighWater)
	fmt.Fprintf(h, "%d %d\n", res.Leaves, res.StolenLeaves)
	bits(res.WorkerBusy...)
	kinds := make([]task.Kind, 0, len(res.BusyByKind))
	for k := range res.BusyByKind {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		fmt.Fprintf(h, "%d ", k)
		bits(res.BusyByKind[k])
	}
	for _, s := range res.Timeline {
		bits(s.Start, s.End, s.Power.PKG, s.Power.PP0, s.Power.DRAM, s.Power.NIC, s.Power.Switch)
	}
	for _, l := range res.Schedule {
		fmt.Fprintf(h, "%d %d %q ", l.Worker, l.Kind, l.Label)
		bits(l.Start, l.End)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestManycoreScheduleDigestsStable pins the scheduler above 64
// workers, where TestEventSchedulerBitIdenticalToSeed cannot reach: its
// seed scheduler keeps uint64 masks. Each row is one shape-only tree
// on a flat cluster; at n ≤ 1024 the timeline and the full schedule are
// hashed too. The 3-worker row keeps one ≤ 64-worker cell in the same
// ledger. The digests were recorded from the scheduler with one shared
// ready FIFO, before it moved to per-mask ready queues.
//
// Each row also bounds the shared dispatch pass by the host-independent
// sim.dispatch.checks counter: at most two placement checks per leaf,
// since a dispatch does heap work per launch and per wake instead of
// visiting every ready leaf on every event. The tight row is CAPS on
// 4096 workers, where thousands of leaves wait on ownership masks with
// no idle worker: 132,079 checks for 91,783 leaves (the shared FIFO
// made 67,661,312).
func TestManycoreScheduleDigestsStable(t *testing.T) {
	setups := []struct{ nodes, n, workers int }{
		{64, 2048, 64},
		{64, 2048, 256},
		{64, 1024, 100},
		{1024, 1024, 4096},
		{1, 1024, 3},
		{16, 512, 37},
	}
	want := map[string]string{
		"OpenBLAS/n=2048/64nodes/64workers":     "693736b78b8e6341ec402e1b6374f1f657bfd5b701ddc2be6012fa387d348a20",
		"Strassen/n=2048/64nodes/64workers":     "285ea72380104df8ff97bfc946effc0b4a23671c588793a1df55a472380937c7",
		"CAPS/n=2048/64nodes/64workers":         "116cadae2bdb2324fd7067e03d43172d6ff44bd68338291e6c4b385acb2475f9",
		"OpenBLAS/n=2048/64nodes/256workers":    "fa4b0269a4f6a508c7c313afa0cb1e8fb680f2365f9343a4b7eef4aabdb91b87",
		"Strassen/n=2048/64nodes/256workers":    "18db90ffaf3ffc0c6577932834d8d81996416027c8c01fabd5a41d3d4c53a8ac",
		"CAPS/n=2048/64nodes/256workers":        "28f4c54d2c08387cd813d8d757096892f35171247548b956900df55959a34521",
		"OpenBLAS/n=1024/64nodes/100workers":    "c2837a06869dbd109aabe7831bd663e25f567bc0662d0bcff57a44aa7969306f",
		"Strassen/n=1024/64nodes/100workers":    "07a2f0fd5b0bffd51c047d207b38365054d47c96686ea00ffd2d0d07bb6c27b0",
		"CAPS/n=1024/64nodes/100workers":        "0f43d171c69cd5a206c7bce519329e967893c0dd89869032671bc5f479b0877a",
		"OpenBLAS/n=1024/1024nodes/4096workers": "d46d9e93b72f060e2663d8e9f3178118cbf6cddf7a04d837f89165cfa18342ef",
		"Strassen/n=1024/1024nodes/4096workers": "058f0230f345664260f4e01a4f179ea2efd5437109ededf231bde59ac84741e1",
		"CAPS/n=1024/1024nodes/4096workers":     "7db8cb0dcda6597f236cc2d8d0087b5b399b528c03b3eefea3ed84512f13b79b",
		"OpenBLAS/n=1024/1nodes/3workers":       "4713dad3c5694c8691291bff86e7928a253c995564c51ec32fec7e62bc92a02b",
		"Strassen/n=1024/1nodes/3workers":       "85309bf7f103fe8968057ca7d85dbb8d60c4f6bf6b4900f1ab791e41a8ce471e",
		"CAPS/n=1024/1nodes/3workers":           "f2e600df3a72d54ff0ec8f81eb2852f14f52c8c579963a058ee634fb073b8ce1",
		"OpenBLAS/n=512/16nodes/37workers":      "64d1fe27e5a830a1ef468fd61986378250112f4d7e8922abb9b289b136fce2c5",
		"Strassen/n=512/16nodes/37workers":      "10d3e966fd4e7bb6cd70c67a80f27f6053f3b41cbd4736c659bdd3e12b09c8c6",
		"CAPS/n=512/16nodes/37workers":          "cdbc2207d45328687d2b0af284897629f34bc74c536acffd822ca54bf088c154",
	}
	node := hw.HaswellE31225()
	checks := obs.GetCounter("sim.dispatch.checks")
	for _, s := range setups {
		m := hw.Cluster(node, s.nodes)
		for _, alg := range []workload.Algorithm{workload.AlgOpenBLAS, workload.AlgStrassen, workload.AlgCAPS} {
			name := fmt.Sprintf("%v/n=%d/%dnodes/%dworkers", alg, s.n, s.nodes, s.workers)
			cfg := sim.Config{Workers: s.workers}
			if s.n <= 1024 {
				cfg.RecordTimeline, cfg.RecordSchedule = true, true
			}
			before := checks.Value()
			res := sim.Run(m, workload.BuildTree(m, alg, s.n, s.workers), cfg)
			if got := resultDigest(res); got != want[name] {
				t.Errorf("%s: digest %s, want %s", name, got, want[name])
			}
			if n := checks.Value() - before; n > 2*int64(res.Leaves) {
				t.Errorf("%s: %d placement checks for %d leaves, want at most %d", name, n, res.Leaves, 2*res.Leaves)
			}
		}
	}
}
