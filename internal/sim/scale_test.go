// Behavior the seed scheduler could not even represent: worker counts
// above 64, cluster machines, and the aggregate power-integration mode.
package sim_test

import (
	"strings"
	"sync"
	"testing"

	"capscale/internal/hw"
	"capscale/internal/sim"
	"capscale/internal/task"
)

// clusterOf returns a flat machine with at least `workers` cores.
func clusterOf(workers int) *hw.Machine {
	node := hw.HaswellE31225()
	return hw.Cluster(node, (workers+node.Cores-1)/node.Cores)
}

func computeLeafN(a *task.Arena, flops float64) task.Ref {
	return a.Leaf(task.Work{Kind: task.KindGEMM, Flops: flops})
}

func TestConfigValidateTable(t *testing.T) {
	m := hw.HaswellE31225()
	big := clusterOf(4096)
	cases := []struct {
		name    string
		m       *hw.Machine
		workers int
		wantErr string // empty = valid
	}{
		{"zero workers", m, 0, "must be positive"},
		{"negative workers", m, -3, "must be positive"},
		{"one over cores", m, 5, "exceed"},
		{"way over cores", big, 5000, "exceed"},
		{"one worker", m, 1, ""},
		{"all cores", m, 4, ""},
		{"cluster scale", big, 4096, ""},
	}
	for _, c := range cases {
		err := sim.Config{Workers: c.workers}.Validate(c.m)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%s: unexpected error %v", c.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: Validate accepted workers=%d on %d cores",
				c.name, c.workers, c.m.Cores)
			continue
		}
		if !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantErr)
		}
	}
}

func TestRunPanicMatchesValidate(t *testing.T) {
	m := hw.HaswellE31225()
	cfg := sim.Config{Workers: 99}
	want := cfg.Validate(m).Error()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("Run accepted invalid config")
		}
		if msg, ok := r.(string); !ok || msg != want {
			t.Fatalf("panic %v, want the Validate message %q", r, want)
		}
	}()
	var a task.Arena
	sim.Run(m, a.Node(computeLeafN(&a, 1)), cfg)
}

// A leaf pinned to worker 100 must execute on worker 100 — under the
// uint64 representation the pin silently vanished for any index ≥ 64.
func TestAffinityAboveSixtyFourIsHonored(t *testing.T) {
	m := clusterOf(128)
	var a task.Arena
	root := a.Node(a.Par(
		a.WithAffinityMask(computeLeafN(&a, 1e8), task.SingleWorker(100)),
		a.WithAffinityMask(computeLeafN(&a, 1e8), task.SingleWorker(67)),
		a.WithAffinityMask(computeLeafN(&a, 1e8), task.MaskRange(90, 95)),
	))
	res := sim.Run(m, root, sim.Config{Workers: 128})
	if res.WorkerBusy[100] == 0 {
		t.Fatal("leaf pinned to worker 100 did not run there")
	}
	if res.WorkerBusy[67] == 0 {
		t.Fatal("leaf pinned to worker 67 did not run there")
	}
	if res.WorkerBusy[90] == 0 {
		t.Fatal("range-masked leaf should take the lowest idle worker in [90,95]")
	}
	for _, w := range []int{0, 1, 64, 99, 101} {
		if res.WorkerBusy[w] != 0 {
			t.Fatalf("worker %d should be idle, busy %v", w, res.WorkerBusy[w])
		}
	}
}

func TestManyWorkersParallelSpeedup(t *testing.T) {
	const workers = 1000
	m := clusterOf(workers)
	var a task.Arena
	leaves := make([]task.Ref, workers)
	for i := range leaves {
		leaves[i] = computeLeafN(&a, 1e9)
	}
	root := a.Node(a.Par(leaves...))
	cfg := sim.Config{Workers: workers, DisableContention: true, DisableAffinity: true}
	res := sim.Run(m, root, cfg)
	one := sim.Run(m, a.Node(a.Par(leaves[:1]...)), cfg)
	if res.Makespan != one.Makespan {
		t.Fatalf("1000 equal leaves on 1000 workers: makespan %v, one leaf alone %v",
			res.Makespan, one.Makespan)
	}
	if res.Leaves != workers {
		t.Fatalf("leaves %d", res.Leaves)
	}
}

// The O(1) aggregate power mode (> 64 workers) must integrate exactly
// what it reports in the timeline: summing Power·dt over recorded
// segments reproduces the energy totals bit-for-bit, because advance
// performs those same multiplications in the same order.
func TestAggregateEnergyConsistentWithTimeline(t *testing.T) {
	const workers = 200
	m := clusterOf(workers)
	var a task.Arena
	var chains []task.Ref
	var regions task.Regions
	for w := 0; w < workers; w++ {
		r := regions.New()
		chains = append(chains, a.WithAffinityMask(a.Seq(
			a.Leaf(task.Work{Kind: task.KindGEMM, Flops: float64(1+w) * 1e6,
				Writes: []task.RegionID{r}, RegionBytes: 1e4}),
			a.Leaf(task.Work{Kind: task.KindAdd, DRAMBytes: float64(1+w%7) * 1e5,
				Reads: []task.RegionID{r}, RegionBytes: 1e4}),
		), task.SingleWorker(w)))
	}
	res := sim.Run(m, a.Node(a.Par(chains...)), sim.Config{Workers: workers, RecordTimeline: true})
	var pkg, pp0, dram float64
	for _, seg := range res.Timeline {
		dt := seg.End - seg.Start
		pkg += seg.Power.PKG * dt
		pp0 += seg.Power.PP0 * dt
		dram += seg.Power.DRAM * dt
	}
	if pkg != res.EnergyPKG || pp0 != res.EnergyPP0 || dram != res.EnergyDRAM {
		t.Fatalf("timeline integral (%v,%v,%v) != energies (%v,%v,%v)",
			pkg, pp0, dram, res.EnergyPKG, res.EnergyPP0, res.EnergyDRAM)
	}
	if res.Makespan <= 0 || res.Leaves != 2*workers {
		t.Fatalf("makespan %v leaves %d", res.Makespan, res.Leaves)
	}
}

// Two runs of the same large configuration must agree exactly — the
// event queue, bitmaps and compensated sums introduce no host
// dependence.
func TestLargeScaleDeterminism(t *testing.T) {
	const workers = 5000
	m := clusterOf(workers)
	mk := func() *task.Node {
		var a task.Arena
		var chains []task.Ref
		for w := 0; w < workers; w++ {
			chains = append(chains, a.WithAffinityMask(a.Seq(
				computeLeafN(&a, float64(1+w%13)*1e6),
				computeLeafN(&a, float64(1+w%5)*1e6),
			), task.SingleWorker(w)))
		}
		return a.Node(a.Par(chains...))
	}
	cfg := sim.Config{Workers: workers}
	a := sim.Run(m, mk(), cfg)
	b := sim.Run(m, mk(), cfg)
	if a.Makespan != b.Makespan || a.EnergyPKG != b.EnergyPKG ||
		a.EnergyPP0 != b.EnergyPP0 || a.EnergyDRAM != b.EnergyDRAM ||
		a.RemoteBytes != b.RemoteBytes || a.StolenLeaves != b.StolenLeaves {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}

// Concurrent Runs share only read-only inputs (machine, tree) and the
// atomic obs counters; the race detector pass in check.sh drives this.
func TestConcurrentRunsRace(t *testing.T) {
	const workers = 100
	m := clusterOf(workers)
	var a task.Arena
	var chains []task.Ref
	for w := 0; w < workers; w++ {
		chains = append(chains, a.WithAffinityMask(computeLeafN(&a, float64(1+w)*1e6), task.SingleWorker(w)))
	}
	shared := a.Node(a.Par(chains...))
	cfg := sim.Config{Workers: workers}
	want := sim.Run(m, shared, cfg)

	var wg sync.WaitGroup
	results := make([]*sim.Result, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = sim.Run(m, shared, cfg)
		}(i)
	}
	wg.Wait()
	for i, r := range results {
		if r.Makespan != want.Makespan || r.EnergyPKG != want.EnergyPKG {
			t.Fatalf("concurrent run %d diverged: %+v vs %+v", i, r, want)
		}
	}
}
