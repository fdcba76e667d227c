package mpi

import (
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"sync"
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

// traceBits flattens a traced run into the bits of every float and
// the counts it reports, so that equal runs compare equal bit for bit.
func traceBits(res *Result, segs []sim.Segment) []uint64 {
	var b []uint64
	add := func(fs ...float64) {
		for _, f := range fs {
			b = append(b, math.Float64bits(f))
		}
	}
	add(res.Makespan, res.ComputeJoules, res.NICJoules, res.IdleJoules, res.BytesSent, res.CritCommSeconds)
	add(res.RankFinish...)
	add(res.RankBusy...)
	b = append(b, uint64(res.Messages), uint64(res.CritAlphaTerms))
	for _, s := range segs {
		p := s.Power
		add(s.Start, s.End, p.PKG, p.PP0, p.DRAM, p.NIC, p.Switch)
	}
	return b
}

// ringProg logs thousands of power deltas per rank, so its run folds
// them many times.
func ringProg(r *Rank) {
	next, prev := (r.ID()+1)%r.Size(), (r.ID()+r.Size()-1)%r.Size()
	for i := 0; i < 500; i++ {
		for k := 0; k < 12; k++ {
			r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: 1e6 * float64(1+r.ID()+k), DRAMBytes: 1e4})
		}
		r.Send(next, 1, 4096)
		r.Recv(prev, 1)
	}
}

// TestConcurrentRunTracedMatchesSequential: traced runs on two
// goroutines at once each equal a sequential run bit for bit.
func TestConcurrentRunTracedMatchesSequential(t *testing.T) {
	c := testCluster(8)
	progs := []struct {
		ranks int
		prog  func(*Rank)
	}{{8, traceProg}, {6, ringProg}}
	want := make([][]uint64, len(progs))
	for i, p := range progs {
		want[i] = traceBits(RunTraced(c, p.ranks, p.prog))
	}
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, p := range progs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			for rep := 0; rep < 2; rep++ {
				if got := traceBits(RunTraced(c, p.ranks, p.prog)); !slices.Equal(got, want[i]) {
					t.Errorf("%d ranks, run %d: differs from the sequential run", p.ranks, rep)
				}
			}
		}()
	}
	close(start)
	wg.Wait()
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
// segments. The folded timeline must reproduce it bit for bit.
func stableSortTimeline(c *cluster.Cluster, logs [][]powerEvent, makespan float64) []sim.Segment {
	if makespan <= 0 {
		return nil
	}
	idle := c.Node.IdlePower()
	n := float64(len(logs))
	base := hw.PlanePower{
		PKG:    idle.PKG * n,
		PP0:    idle.PP0 * n,
		DRAM:   idle.DRAM * n,
		NIC:    c.Fabric.NICIdleWatts * n,
		Switch: c.Fabric.SwitchIdleWatts,
	}
	var events []powerEvent
	for _, log := range logs {
		events = append(events, log...)
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

// TestMergeTimelineMatchesStableSort checks the folded timeline against
// the stable sort of the concatenated logs, on random logs shaped the
// way emit writes them: start times never decrease within a rank,
// wire-window ends run ahead of later starts, and times come from a
// small grid so deltas tie within and across ranks. The ranks emit in a
// random interleaving, as a schedule would run them. Besides the folds
// emit starts itself, the test folds at random points, at the horizon
// of the ranks not yet finished, so cuts fall inside runs of equal-time
// deltas. Powers are arbitrary floats, so any change in the order the
// deltas are added shows in the bits.
func TestMergeTimelineMatchesStableSort(t *testing.T) {
	type emission struct {
		start, end float64
		clock      float64 // the rank's clock after the emission
		pw         hw.PlanePower
	}
	c := testCluster(70)
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 80; trial++ {
		ranks := 1 + rng.Intn(70)
		emissions := make([][]emission, ranks)
		logs := make([][]powerEvent, ranks)
		makespan := 0.0
		for i := range emissions {
			now := 0.0
			for pairs := rng.Intn(251); pairs > 0; pairs-- {
				now += 0.25 * float64(rng.Intn(3))
				e := emission{start: now, end: now + 0.25*float64(1+rng.Intn(8)), clock: now}
				e.pw = hw.PlanePower{PKG: rng.Float64() * 40, PP0: rng.Float64() * 30, DRAM: rng.Float64(), NIC: rng.Float64() * 5}
				if rng.Intn(2) == 0 { // a compute phase: the clock follows it
					e.clock = e.end
				}
				now = e.clock
				emissions[i] = append(emissions[i], e)
				logs[i] = append(logs[i], powerEvent{t: e.start, pw: e.pw}, powerEvent{t: e.end, pw: hw.PlanePower{}.Sub(e.pw)})
				makespan = math.Max(makespan, e.end)
			}
		}
		makespan += 0.25 * float64(rng.Intn(2))

		w := newWorld(c, ranks, nil)
		var live []*Rank
		for _, r := range w.rs {
			if r.done = len(emissions[r.id]) == 0; !r.done {
				live = append(live, r)
			}
		}
		for len(live) > 0 {
			k := rng.Intn(len(live))
			r := live[k]
			e := emissions[r.id][0]
			emissions[r.id] = emissions[r.id][1:]
			r.now = e.start
			r.emit(e.start, e.end, e.pw)
			r.now = e.clock
			if len(emissions[r.id]) == 0 {
				r.done = true
				live = slices.Delete(live, k, k+1)
			}
			if rng.Intn(40) == 0 {
				w.fold(w.horizon())
			}
		}
		want := stableSortTimeline(c, logs, makespan)
		if got := w.timeline(makespan); !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d (%d ranks): folded timeline differs from the stable sort (%d vs %d segments)",
				trial, ranks, len(got), len(want))
		}
	}
}
