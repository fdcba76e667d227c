package mpi

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"capscale/internal/cluster"
	"capscale/internal/task"
)

func testCluster(nodes int) *cluster.Cluster {
	return cluster.TS140Cluster(nodes)
}

func TestRunPanicsOnBadRanks(t *testing.T) {
	c := testCluster(2)
	for _, ranks := range []int{0, -1, 3} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("ranks=%d accepted", ranks)
				}
			}()
			Run(c, ranks, func(r *Rank) {})
		}()
	}
}

func TestPingPongTiming(t *testing.T) {
	c := testCluster(2)
	bytes := 1e6
	res := Run(c, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 0, bytes)
			r.Recv(1, 1)
		} else {
			r.Recv(0, 0)
			r.Send(0, 1, bytes)
		}
	})
	fab := c.Fabric
	// Round trip: 2 transfers + 4 CPU overheads on the critical path.
	want := 2*fab.TransferTime(bytes) + 4*fab.PerMessageOverheadSec
	if math.Abs(res.Makespan-want)/want > 1e-9 {
		t.Fatalf("ping-pong makespan %v want %v", res.Makespan, want)
	}
	if res.Messages != 2 || res.BytesSent != 2*bytes {
		t.Fatalf("traffic accounting: %d msgs %v bytes", res.Messages, res.BytesSent)
	}
}

func TestRecvWaitsForArrival(t *testing.T) {
	c := testCluster(2)
	res := Run(c, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Sleep(1.0) // sender is late
			r.Send(1, 0, 1000)
		} else {
			r.Recv(0, 0) // must advance past sender's clock
		}
	})
	if res.RankFinish[1] <= 1.0 {
		t.Fatalf("receiver finished at %v, before the sender acted", res.RankFinish[1])
	}
}

func TestMessageOrderFIFOPerTag(t *testing.T) {
	c := testCluster(2)
	res := Run(c, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 7, 100)
			r.Send(1, 7, 200)
		} else {
			if got := r.Recv(0, 7); got != 100 {
				panic("first message out of order")
			}
			if got := r.Recv(0, 7); got != 200 {
				panic("second message out of order")
			}
		}
	})
	if res.Messages != 2 {
		t.Fatal("message count")
	}
}

func TestTagsIsolate(t *testing.T) {
	c := testCluster(2)
	Run(c, 2, func(r *Rank) {
		if r.ID() == 0 {
			r.Send(1, 1, 111)
			r.Send(1, 2, 222)
		} else {
			// Receive in the opposite tag order.
			if got := r.Recv(0, 2); got != 222 {
				panic("tag 2 payload wrong")
			}
			if got := r.Recv(0, 1); got != 111 {
				panic("tag 1 payload wrong")
			}
		}
	})
}

func TestDeadlockDetected(t *testing.T) {
	c := testCluster(2)
	defer func() {
		if recover() == nil {
			t.Fatal("mutual recv did not panic")
		}
	}()
	Run(c, 2, func(r *Rank) {
		r.Recv(1-r.ID(), 0) // both wait forever
	})
}

func TestRankPanicsPropagate(t *testing.T) {
	c := testCluster(2)
	defer func() {
		if v := recover(); v != "rank boom" {
			t.Fatalf("recovered %v", v)
		}
	}()
	Run(c, 2, func(r *Rank) {
		if r.ID() == 1 {
			panic("rank boom")
		}
	})
}

func TestComputeAdvancesClockAndEnergy(t *testing.T) {
	c := testCluster(1)
	res := Run(c, 1, func(r *Rank) {
		r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: 1e9})
	})
	if res.Makespan <= 0 || res.ComputeJoules <= 0 {
		t.Fatalf("compute phase: %v s, %v J", res.Makespan, res.ComputeJoules)
	}
	// ~1e9 flops on 4 cores at ~23.5 GF/core.
	want := 1e9 / (4 * 25.6e9 * 0.92)
	if math.Abs(res.Makespan-want)/want > 0.05 {
		t.Fatalf("compute time %v want ~%v", res.Makespan, want)
	}
}

func TestEnergyComponentsPositive(t *testing.T) {
	c := testCluster(4)
	res := Run(c, 4, func(r *Rank) {
		r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: 1e8})
		r.Allreduce(0, 1e5)
	})
	if res.ComputeJoules <= 0 || res.NICJoules <= 0 || res.IdleJoules <= 0 {
		t.Fatalf("energy components %v %v %v", res.ComputeJoules, res.NICJoules, res.IdleJoules)
	}
	if res.TotalJoules() != res.ComputeJoules+res.NICJoules+res.IdleJoules {
		t.Fatal("total mismatch")
	}
	if res.AvgWatts() <= c.IdlePower()*0.99 {
		t.Fatalf("avg watts %v below idle %v", res.AvgWatts(), c.IdlePower())
	}
}

func TestDeterminism(t *testing.T) {
	c := testCluster(7)
	prog := func(r *Rank) {
		r.Compute(ComputeWork{Kind: task.KindGEMM, Flops: float64(r.ID()+1) * 1e7})
		r.Allreduce(3, 1e5)
		r.Alltoall(4, 1e4)
		r.Reduce(2, 5, 2e5)
	}
	a := Run(c, 7, prog)
	b := Run(c, 7, prog)
	if a.Makespan != b.Makespan || a.TotalJoules() != b.TotalJoules() || a.BytesSent != b.BytesSent {
		t.Fatal("two identical distributed runs differ")
	}
}

func TestBcastReachesEveryone(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8} {
		c := testCluster(size)
		res := Run(c, size, func(r *Rank) {
			r.Bcast(size/2, 0, 1e5)
		})
		// Every non-root rank receives exactly once: size-1 messages.
		if res.Messages != size-1 {
			t.Errorf("size %d: %d messages want %d", size, res.Messages, size-1)
		}
	}
}

func TestBcastLogDepth(t *testing.T) {
	// Binomial broadcast's critical path grows like ceil(log2 P), not P.
	c8 := testCluster(8)
	c2 := testCluster(2)
	bytes := 1e6
	t8 := Run(c8, 8, func(r *Rank) { r.Bcast(0, 0, bytes) }).Makespan
	t2 := Run(c2, 2, func(r *Rank) { r.Bcast(0, 0, bytes) }).Makespan
	if t8 > t2*3.5 { // log2(8)=3 rounds vs 1
		t.Fatalf("bcast depth not logarithmic: %v vs %v", t8, t2)
	}
	if t8 <= t2 {
		t.Fatal("bigger broadcast should take longer")
	}
}

func TestReduceMessageCount(t *testing.T) {
	for _, size := range []int{2, 3, 5, 8} {
		c := testCluster(size)
		res := Run(c, size, func(r *Rank) { r.Reduce(0, 0, 1e4) })
		if res.Messages != size-1 {
			t.Errorf("size %d: %d messages want %d", size, res.Messages, size-1)
		}
	}
}

func TestGatherScatterVolume(t *testing.T) {
	size := 8
	per := 1e4
	c := testCluster(size)
	gather := Run(c, size, func(r *Rank) { r.Gather(0, 0, per) })
	// Binomial gather forwards subtrees: total volume is per·Σ subtree
	// sizes = per · (size-1 leaves' worth + forwarded) — at minimum
	// (size-1)·per, at most per·size·log2(size).
	if gather.BytesSent < per*float64(size-1) {
		t.Fatalf("gather volume %v too small", gather.BytesSent)
	}
	scatter := Run(c, size, func(r *Rank) { r.Scatter(0, 0, per) })
	if scatter.BytesSent < per*float64(size-1) {
		t.Fatalf("scatter volume %v too small", scatter.BytesSent)
	}
	// Gather and scatter move the same data in opposite directions.
	if math.Abs(gather.BytesSent-scatter.BytesSent) > 1e-9 {
		t.Fatalf("gather %v vs scatter %v volumes differ", gather.BytesSent, scatter.BytesSent)
	}
}

func TestAlltoallVolume(t *testing.T) {
	size := 5
	per := 1e3
	c := testCluster(size)
	res := Run(c, size, func(r *Rank) { r.Alltoall(0, per) })
	want := per * float64(size) * float64(size-1)
	if math.Abs(res.BytesSent-want) > 1e-9 {
		t.Fatalf("alltoall volume %v want %v", res.BytesSent, want)
	}
}

func TestAllgatherVolume(t *testing.T) {
	size := 6
	per := 1e4
	c := testCluster(size)
	res := Run(c, size, func(r *Rank) { r.Allgather(0, per) })
	// Ring: every rank sends size−1 blocks.
	want := per * float64(size) * float64(size-1)
	if math.Abs(res.BytesSent-want) > 1e-9 {
		t.Fatalf("allgather volume %v want %v", res.BytesSent, want)
	}
}

func TestReduceScatterVolumeAndCombines(t *testing.T) {
	size := 5
	per := 1e4
	c := testCluster(size)
	res := Run(c, size, func(r *Rank) { r.ReduceScatter(0, per) })
	want := per * float64(size) * float64(size-1)
	if math.Abs(res.BytesSent-want) > 1e-9 {
		t.Fatalf("reduce-scatter volume %v want %v", res.BytesSent, want)
	}
	// The combining adds must show up as compute energy.
	if res.ComputeJoules <= 0 {
		t.Fatal("no combine energy")
	}
}

func TestRingCollectivesDeterministic(t *testing.T) {
	c := testCluster(5)
	prog := func(r *Rank) {
		r.Allgather(1, 1e3)
		r.ReduceScatter(2, 2e3)
	}
	a := Run(c, 5, prog)
	b := Run(c, 5, prog)
	if a.Makespan != b.Makespan || a.TotalJoules() != b.TotalJoules() {
		t.Fatal("ring collectives not deterministic")
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	c := testCluster(4)
	res := Run(c, 4, func(r *Rank) {
		// Rank 3 is slow; everyone must wait for it.
		if r.ID() == 3 {
			r.Sleep(0.5)
		}
		r.Barrier(9)
		if r.Now() < 0.5 {
			panic("rank left the barrier before the slowest arrived")
		}
	})
	if res.Makespan < 0.5 {
		t.Fatal("barrier broken")
	}
}

func TestSendRecvExchange(t *testing.T) {
	c := testCluster(2)
	Run(c, 2, func(r *Rank) {
		peer := 1 - r.ID()
		got := r.SendRecv(peer, 0, float64(100*(r.ID()+1)))
		want := float64(100 * (peer + 1))
		if got != want {
			panic("exchange payload wrong")
		}
	})
}

func TestSendValidation(t *testing.T) {
	c := testCluster(2)
	cases := []func(r *Rank){
		func(r *Rank) { r.Send(5, 0, 1) },
		func(r *Rank) { r.Send(r.ID(), 0, 1) },
		func(r *Rank) { r.Send(1-r.ID(), 0, -1) },
		func(r *Rank) { r.Recv(9, 0) },
		func(r *Rank) { r.Sleep(-1) },
	}
	for i, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			Run(c, 2, func(r *Rank) {
				if r.ID() == 0 {
					bad(r)
				}
			})
		}()
	}
}

// runPanic runs prog and returns the value Run panicked with, or nil.
func runPanic(ranks int, prog func(*Rank)) (v any) {
	defer func() { v = recover() }()
	Run(testCluster(ranks), ranks, prog)
	return nil
}

// goroutinesBackTo polls briefly until the goroutine count falls back
// to want, and returns the last count seen. It may end below want: the
// last rank goroutine of an earlier Run can still be exiting when a
// test takes its starting count.
func goroutinesBackTo(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// A rank waiting on one that has already returned is deadlocked even
// though not every rank is waiting. The diagnosis names the waiting
// rank whether it is found as that rank suspends or as the last
// runnable rank returns.
func TestPartialDeadlockNamesWaitingRank(t *testing.T) {
	cases := []struct {
		name  string
		ranks int
		prog  func(*Rank)
		want  string
	}{
		{"on suspend", 2, func(r *Rank) {
			if r.ID() == 1 {
				r.Recv(0, 0)
			}
		}, "mpi: deadlock — every live rank is waiting (rank 1 on src 0 tag 0)"},
		{"on exit", 3, func(r *Rank) {
			switch r.ID() {
			case 0:
				r.Recv(2, 0)
			case 1:
				r.Recv(0, 5)
			case 2:
				r.Send(0, 0, 1)
			}
		}, "mpi: deadlock — every live rank is waiting (rank 1 on src 0 tag 5)"},
	}
	for _, tc := range cases {
		start := runtime.NumGoroutine()
		if v := runPanic(tc.ranks, tc.prog); v != tc.want {
			t.Errorf("%s: recovered %v, want %q", tc.name, v, tc.want)
		}
		if n := goroutinesBackTo(start); n > start {
			t.Errorf("%s: %d goroutines after Run, %d before", tc.name, n, start)
		}
	}
}

func TestRingDeadlockDetected(t *testing.T) {
	const size = 64
	start := runtime.NumGoroutine()
	v := runPanic(size, func(r *Rank) {
		r.Recv((r.ID()+size-1)%size, 0)
		r.Send((r.ID()+1)%size, 0, 1)
	})
	if s, ok := v.(string); !ok || !strings.HasPrefix(s, "mpi: deadlock") {
		t.Fatalf("recovered %v, want a deadlock diagnosis", v)
	}
	if n := goroutinesBackTo(start); n > start {
		t.Fatalf("%d goroutines after Run, %d before", n, start)
	}
}

// A rank panic while the other ranks are suspended is re-raised by Run
// only after every suspended rank has unwound through its deferred
// calls, and no goroutine outlives the run.
func TestRankPanicUnwindsSuspendedRanks(t *testing.T) {
	const size = 8
	start := runtime.NumGoroutine()
	unwound := 0
	v := runPanic(size, func(r *Rank) {
		if r.ID() == size-1 {
			panic("boom")
		}
		defer func() { unwound++ }()
		r.Recv(size-1, 0)
	})
	if v != "boom" {
		t.Fatalf("recovered %v, want the rank's own panic", v)
	}
	if unwound != size-1 {
		t.Fatalf("%d of %d suspended ranks unwound before Run panicked", unwound, size-1)
	}
	if n := goroutinesBackTo(start); n > start {
		t.Fatalf("%d goroutines after Run, %d before", n, start)
	}
}
