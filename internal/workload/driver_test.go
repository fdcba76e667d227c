package workload

import (
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"sync"
	"testing"

	"capscale/internal/matrix"
	"capscale/internal/sim"
	"capscale/internal/strassen"
)

func TestZeroDurationRunWatts(t *testing.T) {
	r := &Run{PKGJoules: 5, PP0Joules: 3, DRAMJoules: 1, Seconds: 0}
	for name, w := range map[string]float64{
		"PKG": r.WattsPKG(), "PP0": r.WattsPP0(),
		"DRAM": r.WattsDRAM(), "Total": r.WattsTotal(),
	} {
		if w != 0 {
			t.Errorf("Watts%s on a zero-duration run = %v, want 0", name, w)
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			t.Errorf("Watts%s on a zero-duration run is %v", name, w)
		}
	}
}

// TestExecuteParallelBitIdenticalToSequential is the tentpole's
// correctness gate: the concurrent sweep must reproduce the sequential
// sweep bit for bit, every field of every Run, in the same order. It
// runs under -race in scripts/check.sh.
func TestExecuteParallelBitIdenticalToSequential(t *testing.T) {
	cfg := SmokeConfig()
	cfg.RecordTraces = true
	cfg.TraceSampleInterval = 1e-4
	cfg.NoCache = true // both arms must actually simulate

	seqCfg := cfg
	seqCfg.Parallelism = 1
	parCfg := cfg
	parCfg.Parallelism = 8

	seq := Execute(seqCfg)
	par := Execute(parCfg)

	if len(seq.Runs) != len(par.Runs) {
		t.Fatalf("run counts %d vs %d", len(seq.Runs), len(par.Runs))
	}
	for i := range seq.Runs {
		if !reflect.DeepEqual(seq.Runs[i], par.Runs[i]) {
			t.Fatalf("run %d differs:\nsequential %+v\nparallel   %+v",
				i, seq.Runs[i], par.Runs[i])
		}
	}
}

func TestExecuteNegativeParallelismPanics(t *testing.T) {
	cfg := SmokeConfig()
	cfg.Parallelism = -1
	defer func() {
		if recover() == nil {
			t.Fatal("negative parallelism did not panic")
		}
	}()
	Execute(cfg)
}

// TestShapeTreeMatchesDenseTree proves the shape-only build is not a
// different model: a tree built from shape-only operands simulates to
// exactly the same schedule and energy as one built from dense
// operands.
func TestShapeTreeMatchesDenseTree(t *testing.T) {
	m := SmokeConfig().Machine
	n, threads := 256, 2

	a, b, c := matrix.New(n, n), matrix.New(n, n), matrix.New(n, n)
	dense := strassen.Build(m, c, a, b, threads, strassen.Options{})
	shape := BuildTree(m, AlgStrassen, n, threads)

	rd := sim.Run(m, dense, sim.Config{Workers: threads, RecordTimeline: true})
	rs := sim.Run(m, shape, sim.Config{Workers: threads, RecordTimeline: true})

	if rd.Makespan != rs.Makespan || rd.Leaves != rs.Leaves ||
		rd.EnergyPKG != rs.EnergyPKG || rd.EnergyPP0 != rs.EnergyPP0 ||
		rd.EnergyDRAM != rs.EnergyDRAM || rd.RemoteBytes != rs.RemoteBytes {
		t.Fatalf("dense-built and shape-built trees diverge:\ndense %+v\nshape %+v", rd, rs)
	}
	if len(rd.Timeline) != len(rs.Timeline) {
		t.Fatalf("timeline lengths %d vs %d", len(rd.Timeline), len(rs.Timeline))
	}
	for i := range rd.Timeline {
		if rd.Timeline[i] != rs.Timeline[i] {
			t.Fatalf("segment %d differs", i)
		}
	}
}

// TestBuildTreeAllocatesNoOperandStorage pins the memory win: building
// the n=2048 Strassen tree must not allocate the ~100 MB of dense
// operand zeros the old path did.
func TestBuildTreeAllocatesNoOperandStorage(t *testing.T) {
	m := SmokeConfig().Machine
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	root := BuildTree(m, AlgStrassen, 2048, 4)
	runtime.ReadMemStats(&after)
	if root == nil {
		t.Fatal("nil tree")
	}
	alloc := after.TotalAlloc - before.TotalAlloc
	// Three dense 2048x2048 operands alone are 100 MB; the tree itself
	// is a few MB of nodes. Anything near the dense figure means the
	// shape-only path regressed.
	if alloc > 32<<20 {
		t.Fatalf("BuildTree(n=2048) allocated %d MB, shape-only build regressed", alloc>>20)
	}
}

func TestRunMemoizationHitsAndIsolation(t *testing.T) {
	rc := NewRunCache(DefaultRunCacheCap)
	cfg := SmokeConfig()
	cfg.Cache = rc
	cfg.RecordTraces = true
	cfg.TraceSampleInterval = 1e-4

	r1 := ExecuteOne(cfg, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after one cell, want 1", got)
	}
	r2 := ExecuteOne(cfg, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 1 {
		t.Fatalf("cache holds %d entries after a repeat, want 1", got)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cached run differs from original:\n%+v\n%+v", r1, r2)
	}

	// Mutating what a caller got back must not poison later hits.
	r2.BusyByKind["poison"] = 1
	r2.Trace.Samples[0].PKG = -1
	r3 := ExecuteOne(cfg, AlgOpenBLAS, 128, 1)
	if _, leaked := r3.BusyByKind["poison"]; leaked {
		t.Fatal("map mutation leaked into the cache")
	}
	if r3.Trace.Samples[0].PKG == -1 {
		t.Fatal("trace mutation leaked into the cache")
	}
}

func TestRunMemoizationNoCacheBypasses(t *testing.T) {
	rc := NewRunCache(DefaultRunCacheCap)
	cfg := SmokeConfig()
	cfg.Cache = rc
	cfg.NoCache = true
	ExecuteOne(cfg, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 0 {
		t.Fatalf("NoCache run populated the cache (%d entries)", got)
	}
}

func TestRunMemoizationKeysOnMachineAndSettings(t *testing.T) {
	rc := NewRunCache(DefaultRunCacheCap)
	cfg := SmokeConfig()
	cfg.Cache = rc
	base := ExecuteOne(cfg, AlgOpenBLAS, 128, 1)

	// A tweaked power coefficient is a different platform: the cache
	// must miss and the run must differ.
	tweaked := *cfg.Machine
	tweaked.Power.CoreDyn *= 2
	cfg2 := cfg
	cfg2.Machine = &tweaked
	hot := ExecuteOne(cfg2, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 2 {
		t.Fatalf("cache holds %d entries across two machines, want 2", got)
	}
	if hot.PKGJoules <= base.PKGJoules {
		t.Fatalf("doubled CoreDyn did not raise PKG joules (%v vs %v)", hot.PKGJoules, base.PKGJoules)
	}

	// A different poll interval is a different measurement: new entry.
	cfg3 := cfg
	cfg3.PollInterval = DefaultPollInterval / 2
	ExecuteOne(cfg3, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 3 {
		t.Fatalf("cache holds %d entries across two poll intervals, want 3", got)
	}

	// An explicitly-default poll interval shares the defaulted entry.
	cfg4 := cfg
	cfg4.PollInterval = DefaultPollInterval
	ExecuteOne(cfg4, AlgOpenBLAS, 128, 1)
	if got := rc.Len(); got != 3 {
		t.Fatalf("explicit default interval added an entry (%d total)", got)
	}
}

func TestGetIndexAgreesWithLinearScan(t *testing.T) {
	mx := getSmoke(t)
	for _, alg := range mx.Cfg.Algorithms {
		for _, n := range mx.Cfg.Sizes {
			for _, p := range mx.Cfg.Threads {
				r := mx.Get(alg, n, p)
				if r == nil || r.Alg != alg || r.N != n || r.Threads != p {
					t.Fatalf("Get(%v,%d,%d) = %+v", alg, n, p, r)
				}
				// The pointer must land inside Runs, not a copy.
				found := false
				for i := range mx.Runs {
					if r == &mx.Runs[i] {
						found = true
						break
					}
				}
				if !found {
					t.Fatal("Get returned a pointer outside Runs")
				}
			}
		}
	}
	if mx.Get(AlgWinograd, 128, 1) != nil {
		t.Fatal("Get found an algorithm the smoke matrix never ran")
	}
}

// TestWarmCellAllocatesAlmostNothing: a cell hands its tree's storage
// and the simulator's buffers back to their pools, so the next cell
// reuses them. A cold CAPS or Strassen cell at n = 1024 on 4 threads
// allocates about 2 MB; a warm one stays within a small fixed budget
// for what every cell makes anew (labels, the record, the measurement
// stream). The collector is off for the test, since a collection
// empties the pools, and one P holds the pools' per-P caches still.
func TestWarmCellAllocatesAlmostNothing(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const budget = 64 << 10
	cfg := SmokeConfig()
	cfg.NoCache = true
	for _, alg := range []Algorithm{AlgCAPS, AlgStrassen} {
		ExecuteOne(cfg, alg, 1024, 4)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		ExecuteOne(cfg, alg, 1024, 4)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Errorf("%v: a warm cell allocated %d KiB, budget %d KiB", alg, got>>10, budget>>10)
		}
	}
}

// TestPooledCellsBitIdenticalUnderConcurrency: the driver's workers
// share the tree storage pool and the simulator's executor pool. Two
// goroutines build, simulate and release trees of different sizes at
// once, each taking storage another released; every Run must equal a
// sequential reference bit for bit, its schedule's labels included.
func TestPooledCellsBitIdenticalUnderConcurrency(t *testing.T) {
	cfg := SmokeConfig()
	cfg.NoCache = true
	cfg.RecordSchedule = true
	cells := []struct {
		alg        Algorithm
		n, threads int
	}{
		{AlgCAPS, 1024, 4}, {AlgStrassen, 128, 1}, {AlgOpenBLAS, 256, 2},
		{AlgCG, 128, 2}, {AlgStrassen, 512, 2}, {AlgCAPS, 128, 1},
	}
	want := make([]Run, len(cells))
	for i, c := range cells {
		want[i] = ExecuteOne(cfg, c.alg, c.n, c.threads)
	}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range cells {
				// The goroutines walk the cells from opposite ends, so
				// small and large trees swap storage.
				i := k
				if g == 1 {
					i = len(cells) - 1 - k
				}
				c := cells[i]
				if got := ExecuteOne(cfg, c.alg, c.n, c.threads); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: %v n=%d threads=%d differs from the sequential run", g, c.alg, c.n, c.threads)
				}
			}
		}(g)
	}
	wg.Wait()
}
