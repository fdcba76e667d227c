package mpi

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"capscale/internal/cluster"
	"capscale/internal/hw"
	"capscale/internal/monitor"
	"capscale/internal/rapl"
	"capscale/internal/sim"
	"capscale/internal/task"
)

// traceProg is a representative mixed program: local compute phases
// interleaved with an allreduce and some point-to-point traffic.
func traceProg(r *Rank) {
	r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: 2e8, DRAMBytes: 1e6})
	r.Allreduce(3, 64<<10)
	if r.ID() == 0 && r.Size() > 1 {
		r.Send(1, 9, 1<<20)
	}
	if r.ID() == 1 {
		r.Recv(0, 9)
	}
	r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: 1e8})
	r.Barrier(4)
}

// TestTimelineIntegratesToTotalJoules is the energy-consistency
// invariant RunTraced is built on: integrating the per-plane power
// timeline over virtual time reproduces the run's exact energy
// account, so a monitor fed the timeline reconciles against the same
// ground truth the Result reports.
func TestTimelineIntegratesToTotalJoules(t *testing.T) {
	c := testCluster(8)
	res, segs := RunTraced(c, 8, traceProg)
	if len(segs) == 0 {
		t.Fatal("no timeline")
	}
	var integral float64
	prev := 0.0
	for i, s := range segs {
		if s.End <= s.Start {
			t.Fatalf("segment %d empty: [%v,%v)", i, s.Start, s.End)
		}
		if s.Start != prev {
			t.Fatalf("segment %d starts at %v, want %v (gap or overlap)", i, s.Start, prev)
		}
		prev = s.End
		integral += s.Power.Total() * (s.End - s.Start)
	}
	if last := segs[len(segs)-1].End; last != res.Makespan {
		t.Fatalf("timeline ends at %v, makespan %v", last, res.Makespan)
	}
	want := res.TotalJoules()
	if math.Abs(integral-want) > 1e-9*want {
		t.Fatalf("timeline integral %v J, result total %v J", integral, want)
	}
}

// TestRunTracedDeterministic asserts bit-identical results and
// timelines across runs: merge order is rank order, never goroutine
// interleaving.
func TestRunTracedDeterministic(t *testing.T) {
	c := testCluster(8)
	res1, segs1 := RunTraced(c, 8, traceProg)
	res2, segs2 := RunTraced(c, 8, traceProg)
	if !reflect.DeepEqual(res1, res2) {
		t.Fatalf("results differ:\n%+v\n%+v", res1, res2)
	}
	if !reflect.DeepEqual(segs1, segs2) {
		t.Fatalf("timelines differ (%d vs %d segments)", len(segs1), len(segs2))
	}
}

// TestRunMatchesRunTraced pins that tracing is observation only: the
// untraced path returns the same Result.
func TestRunMatchesRunTraced(t *testing.T) {
	c := testCluster(8)
	plain := Run(c, 8, traceProg)
	traced, _ := RunTraced(c, 8, traceProg)
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("Run and RunTraced disagree:\n%+v\n%+v", plain, traced)
	}
}

// TestTimelineReconcilesThroughMonitor closes the distributed
// measurement loop: the MPI power timeline replays through the RAPL
// device with the NIC and switch planes armed, the polled measurement
// reconciles against device ground truth, and the device's total
// energy equals the run's.
func TestTimelineReconcilesThroughMonitor(t *testing.T) {
	c := testCluster(8)
	res, segs := RunTraced(c, 8, traceProg)

	dev := rapl.NewDevice()
	rep, err := monitor.Replay(segs, monitor.Config{
		PollInterval: res.Makespan / 50,
		Device:       dev,
		Planes:       rapl.ClusterPlanes(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Planes) != len(rapl.ClusterPlanes()) {
		t.Fatalf("reported planes %v", rep.Planes)
	}
	if !rep.Reconciled(1e-3) {
		t.Fatalf("measurement did not reconcile:\n%s", rep)
	}
	// NIC and Switch planes carry real energy on this fabric.
	if rep.Plane(rapl.PlaneNIC).TruthJ <= 0 || rep.Plane(rapl.PlaneSwitch).TruthJ <= 0 {
		t.Fatalf("interconnect planes empty:\n%s", rep)
	}
	var devTotal float64
	for _, p := range rapl.ClusterPlanes() {
		if p == rapl.PlanePP0 { // nested inside PKG
			continue
		}
		devTotal += dev.TotalJoules(p)
	}
	want := res.TotalJoules()
	if math.Abs(devTotal-want) > 1e-6*want {
		t.Fatalf("device accumulated %v J, run total %v J", devTotal, want)
	}
}

// TestCriticalPathMetrics pins the measured α-term count: a binomial
// allreduce at P=8 puts ⌈log₂P⌉ = 3 exposed message latencies on the
// root's critical path (its three reduce receives), and the critical
// comm time is positive and bounded by the makespan.
func TestCriticalPathMetrics(t *testing.T) {
	c := testCluster(8)
	res := Run(c, 8, func(r *Rank) { r.Allreduce(0, 1<<20) })
	if res.CritAlphaTerms != 3 {
		t.Fatalf("CritAlphaTerms %d, want 3", res.CritAlphaTerms)
	}
	if res.CritCommSeconds <= 0 || res.CritCommSeconds > res.Makespan {
		t.Fatalf("CritCommSeconds %v outside (0, %v]", res.CritCommSeconds, res.Makespan)
	}
}

// stableSortTimeline is the reference merge: every rank's deltas
// concatenated in rank order and stable-sorted by time, then swept into
// segments. mergeTimeline must reproduce it bit for bit.
func stableSortTimeline(c *cluster.Cluster, rs []*Rank, makespan float64) []sim.Segment {
	if makespan <= 0 {
		return nil
	}
	idle := c.Node.IdlePower()
	n := float64(len(rs))
	base := hw.PlanePower{
		PKG:    idle.PKG * n,
		PP0:    idle.PP0 * n,
		DRAM:   idle.DRAM * n,
		NIC:    c.Fabric.NICIdleWatts * n,
		Switch: c.Fabric.SwitchIdleWatts,
	}
	var events []powerEvent
	for _, r := range rs {
		events = append(events, r.events...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].t < events[j].t })

	var segs []sim.Segment
	cur := base
	prev := 0.0
	for i := 0; i < len(events); {
		t := events[i].t
		if t > prev {
			segs = append(segs, sim.Segment{Start: prev, End: t, Power: cur})
			prev = t
		}
		for i < len(events) && events[i].t == t {
			cur = cur.Add(events[i].pw)
			i++
		}
	}
	if makespan > prev {
		segs = append(segs, sim.Segment{Start: prev, End: makespan, Power: cur})
	}
	return segs
}

// TestMergeTimelineMatchesStableSort checks the per-rank sort plus
// k-way merge against the stable sort of the concatenated logs, on
// random logs shaped the way emit writes them: start times never
// decrease within a rank, wire-window ends run ahead of later starts,
// and times come from a small grid so deltas tie within and across
// ranks. Powers are arbitrary floats, so any change in the order the
// deltas are added shows in the bits.
func TestMergeTimelineMatchesStableSort(t *testing.T) {
	c := testCluster(70)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		ranks := 1 + rng.Intn(70)
		rs := make([]*Rank, ranks)
		makespan := 0.0
		for i := range rs {
			r := &Rank{id: i, size: ranks}
			now := 0.0
			for pairs := rng.Intn(251); pairs > 0; pairs-- {
				now += 0.25 * float64(rng.Intn(3))
				end := now + 0.25*float64(1+rng.Intn(8))
				pw := hw.PlanePower{PKG: rng.Float64() * 40, PP0: rng.Float64() * 30, DRAM: rng.Float64(), NIC: rng.Float64() * 5}
				r.events = append(r.events, powerEvent{t: now, pw: pw}, powerEvent{t: end, pw: hw.PlanePower{}.Sub(pw)})
				makespan = math.Max(makespan, end)
				if rng.Intn(2) == 0 { // a compute phase: the clock follows it
					now = end
				}
			}
			rs[i] = r
		}
		makespan += 0.25 * float64(rng.Intn(2))
		want := stableSortTimeline(c, rs, makespan)
		if got := mergeTimeline(c, rs, makespan); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d ranks): merged timeline differs from the stable sort (%d vs %d segments)",
				trial, ranks, len(got), len(want))
		}
	}
}
